package repro.exp

import org.apache.spark.sql.SparkSession

/** Table 1: statistics of the (stand-in) graphs — #vertices, #edges, d_max,
  * d_avg, γ_max (largest γ with a non-empty γ-core = max coreness).
  */
object Table1 {

  def rows(spark: SparkSession): Seq[Seq[String]] =
    (Datasets.specs.map(_.name) :+ "dblp-s").map { name =>
      val g = if (name == "dblp-s") Datasets.dblp(spark) else Datasets.graph(spark, name)
      val degrees = (0 until g.n).map(g.degree)
      val dMax = if (g.n == 0) 0 else degrees.max
      val dAvg = if (g.n == 0) 0.0 else degrees.sum.toDouble / g.n
      val paper = Datasets.specs.find(_.name == name).map(_.paperName).getOrElse("DBLP")
      Seq(name, paper, g.n.toString, g.m.toString, dMax.toString,
          f"$dAvg%.2f", Datasets.gammaMax(g).toString)
    }

  val table = Table("Table 1 -- graph statistics (stand-ins)",
    Seq("graph", "paper graph", "#vertices", "#edges", "d_max", "d_avg", "gamma_max"), rows)
}
