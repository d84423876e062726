package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Shared SparkSession bootstrap for the spark-submit entrypoint. */
object JobSession {
  def apply(name: String): SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName(name)
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()
}

/** Prints the reproduced tables of one experiment, named as in
  * [[Experiments.byName]]: `table1`, `eval1` … `eval9`.
  */
object Reproduce {
  def main(args: Array[String]): Unit = {
    val names = Experiments.byName.map(_._1)
    val tables = args match {
      case Array(name) => Experiments.byName.toMap.getOrElse(name,
        throw new IllegalArgumentException(s"unknown experiment $name; one of ${names.mkString(", ")}"))
      case _ => throw new IllegalArgumentException(s"usage: Reproduce <${names.mkString("|")}>")
    }
    val spark = JobSession(args(0))
    try tables.foreach(_.run(spark)) finally spark.stop()
  }
}
