package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared SparkSession bootstrap for the spark-submit entrypoints. */
object JobSession {
  def apply(name: String): SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName(name)
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()
}

/** Table 1 — statistics of the stand-in graphs. */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("table1")
    try println(repro.exp.Table1.run(spark)) finally spark.stop()
  }
}

/** Eval-I (Figs. 8–10) — vs OnlineAll and Forward, varying k and γ. */
object Eval1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("eval1")
    try println(repro.exp.Eval1.run(spark)) finally spark.stop()
  }
}

/** Eval-II (Fig. 11) — vs Backward. */
object Eval2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("eval2")
    try println(repro.exp.Eval2.run(spark)) finally spark.stop()
  }
}

/** Eval-III (Fig. 12) — vs LocalSearch-OA. */
object Eval3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("eval3")
    try println(repro.exp.Eval3.run(spark)) finally spark.stop()
  }
}

/** Eval-IV (Fig. 13) — growth ratio δ sweep. */
object Eval4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("eval4")
    try println(repro.exp.Eval4.run(spark)) finally spark.stop()
  }
}

/** Eval-V (Figs. 14–15) — progressive reporting. */
object Eval5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("eval5")
    try println(repro.exp.Eval5.run(spark)) finally spark.stop()
  }
}

/** Eval-VI (Figs. 16–17) — semi-external algorithms. */
object Eval6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("eval6")
    try println(repro.exp.Eval6.run(spark)) finally spark.stop()
  }
}

/** Eval-VII (Fig. 18) — non-containment queries. */
object Eval7Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("eval7")
    try println(repro.exp.Eval7.run(spark)) finally spark.stop()
  }
}

/** Eval-VIII (Fig. 19) — γ-truss community search. */
object Eval8Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("eval8")
    try println(repro.exp.Eval8.run(spark)) finally spark.stop()
  }
}

/** Eval-IX (Figs. 20–21) — DBLP case study. */
object Eval9Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("eval9")
    try println(repro.exp.Eval9.run(spark)) finally spark.stop()
  }
}
