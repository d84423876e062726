package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baseline.{Backward, LocalSearchOA}
import repro.core.{LocalSearch, LocalSearchP}

/** Eval-II (Fig. 11): LocalSearch-P against the quadratic local search
  * baseline Backward, on the smaller graphs (Backward's Σ size(prefix_p)
  * work is quadratic in the accessed subgraph).
  */
object Eval2 {

  def rows(spark: SparkSession): Seq[Seq[String]] =
    for {
      name <- Datasets.smallNames
      g = Datasets.graph(spark, name)
      gamma <- Seq(10, 20) if gamma <= Datasets.gammaMax(g)
      k <- Seq(5, 10, 20, 50, 100)
    } yield {
      val lsp = Timing.ms(LocalSearchP.topK(g, k, gamma))
      val bwd = Timing.ms(Backward.topK(g, k, gamma))
      Seq(name, gamma.toString, k.toString, Timing.fmt(lsp), Timing.fmt(bwd))
    }

  val table = Table("Eval-II / Fig. 11 -- vs Backward, time in ms",
    Seq("graph", "gamma", "k", "LocalSearch-P", "Backward"), rows)
}

/** Eval-III (Fig. 12): LocalSearch-P against LocalSearch-OA (same framework,
  * counting via OnlineAll-style component traversals) — isolates CountIC.
  */
object Eval3 {

  def rows(spark: SparkSession): Seq[Seq[String]] =
    for {
      s <- Datasets.specs
      g = Datasets.graph(spark, s.name)
      k <- Seq(5, 10, 20, 50, 100)
    } yield {
      val lsp = Timing.ms(LocalSearchP.topK(g, k, 10))
      val oa = Timing.ms(LocalSearchOA.topK(g, k, 10))
      Seq(s.name, k.toString, Timing.fmt(lsp), Timing.fmt(oa))
    }

  val table = Table("Eval-III / Fig. 12 -- vs LocalSearch-OA (gamma=10), time in ms",
    Seq("graph", "k", "LocalSearch-P", "LocalSearch-OA"), rows)
}

/** Eval-IV (Fig. 13): sensitivity to the exponential growth ratio δ. */
object Eval4 {

  val deltas: Seq[Double] = Seq(1.5, 2, 3, 4, 8, 16, 32, 64, 128)

  def rows(spark: SparkSession): Seq[Seq[String]] =
    for {
      s <- Datasets.specs
      g = Datasets.graph(spark, s.name)
    } yield {
      val times = deltas.map(d => Timing.fmt(Timing.ms(LocalSearchP.topK(g, 10, 10, delta = d))))
      s.name +: times
    }

  val table = Table("Eval-IV / Fig. 13 -- growth ratio delta (k=10, gamma=10), time in ms",
    "graph" +: deltas.map(d => s"d=$d"), rows)
}

/** Eval-V (Figs. 14–15): the progressive approach. Fig. 14 reports the
  * elapsed time until the i-th community is reported (LocalSearch only
  * reports at the end; LocalSearch-P reports as it goes); Fig. 15 compares
  * total processing time. Both are timed under [[Timing]]'s protocol.
  */
object Eval5 {

  val reportAt: Seq[Int] = Seq(1, 2, 4, 8, 16, 32, 64, 128)

  /** Fig. 14: time-to-i-th-community for k = 128. */
  def latencyRows(spark: SparkSession): Seq[Seq[String]] =
    Datasets.specs.map { s =>
      val g = Datasets.graph(spark, s.name)
      // LocalSearch-P: walk the iterator, recording the report times.
      val progressive = Timing.medians {
        val at = new Array[Double](reportAt.length)
        val t0 = System.nanoTime()
        val it = LocalSearchP.iterator(g, 10)
        var i = 0
        while (i < 128 && it.hasNext) {
          val r = it.next()
          require(r.size > 0)
          val idx = reportAt.indexOf(i + 1)
          if (idx >= 0) at(idx) = (System.nanoTime() - t0) / 1e6
          i += 1
        }
        // graphs with fewer than 128 communities: fill with the final time
        val end = (System.nanoTime() - t0) / 1e6
        at.toSeq.map(t => if (t == 0.0) end else t)
      }
      val (_, total) = Timing.measure(LocalSearch.topK(g, 128, 10))
      Seq(s.name, "LocalSearch-P") ++ progressive.map(Timing.fmt) :+ Timing.fmt(total)
    }

  /** Fig. 15: total time, LocalSearch vs LocalSearch-P, varying k. */
  def totalRows(spark: SparkSession): Seq[Seq[String]] =
    for {
      s <- Datasets.specs
      g = Datasets.graph(spark, s.name)
      k <- Seq(5, 10, 20, 50, 100)
    } yield {
      val lsp = Timing.ms(LocalSearchP.topK(g, k, 10))
      val ls = Timing.ms(LocalSearch.topK(g, k, 10))
      Seq(s.name, k.toString, Timing.fmt(lsp), Timing.fmt(ls))
    }

  val fig14 = Table("Eval-V / Fig. 14 -- time until i-th community (gamma=10, k=128), ms",
    Seq("graph", "algorithm") ++ reportAt.map(i => s"i=$i") :+ "LocalSearch(total)",
    latencyRows)
  val fig15 = Table("Eval-V / Fig. 15 -- total time, LocalSearch-P vs LocalSearch (gamma=10), ms",
    Seq("graph", "k", "LocalSearch-P", "LocalSearch"), totalRows)
}
