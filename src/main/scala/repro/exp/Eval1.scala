package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baseline.{Forward, OnlineAll}
import repro.core.LocalSearchP

/** Eval-I (Figs. 8–10): LocalSearch-P against the global search baselines
  * OnlineAll and Forward, varying k and γ, plus the large-k/large-γ sweep on
  * the two largest graphs. OnlineAll is run only on the smaller graphs (the
  * paper likewise omits it on Arabic/UK/Twitter) and — being independent of
  * k — is measured once per (graph, γ).
  */
object Eval1 {

  val ks: Seq[Int] = Seq(5, 10, 20, 50, 100)
  val gammas: Seq[Int] = Seq(5, 10, 20, 50)

  def varyK(spark: SparkSession): Seq[Seq[String]] = {
    val gamma = 10
    for {
      s <- Datasets.specs
      g = Datasets.graph(spark, s.name)
      onlineAllMs = if (Datasets.smallNames.contains(s.name))
                      Some(Timing.ms(OnlineAll.topK(g, 10, gamma))) else None
      k <- ks
    } yield {
      val lsp = Timing.ms(LocalSearchP.topK(g, k, gamma))
      val fwd = Timing.ms(Forward.topK(g, k, gamma))
      Seq(s.name, k.toString, Timing.fmt(lsp), Timing.fmt(fwd),
          onlineAllMs.map(Timing.fmt).getOrElse("-"))
    }
  }

  def varyGamma(spark: SparkSession): Seq[Seq[String]] = {
    val k = 10
    for {
      s <- Datasets.specs
      g = Datasets.graph(spark, s.name)
      gmax = Datasets.gammaMax(g)
      gamma <- gammas if gamma <= gmax
    } yield {
      val lsp = Timing.ms(LocalSearchP.topK(g, k, gamma))
      val fwd = Timing.ms(Forward.topK(g, k, gamma))
      val oa = if (Datasets.smallNames.contains(s.name))
                 Timing.fmt(Timing.ms(OnlineAll.topK(g, k, gamma))) else "-"
      Seq(s.name, gamma.toString, Timing.fmt(lsp), Timing.fmt(fwd), oa)
    }
  }

  /** Fig. 10: large k and γ on the two largest graphs, vs Forward only. */
  def largeParams(spark: SparkSession): Seq[Seq[String]] = {
    for {
      name <- Seq("arabic-s", "twitter-s")
      g = Datasets.graph(spark, name)
      gmax = Datasets.gammaMax(g)
      (k, gamma) <- Seq((200, 10), (500, 10), (1000, 10),
                        (10, math.max(10, gmax / 2)), (10, math.max(10, gmax - 2)))
    } yield {
      val lsp = Timing.ms(LocalSearchP.topK(g, k, gamma))
      val fwd = Timing.ms(Forward.topK(g, k, gamma))
      Seq(name, k.toString, gamma.toString, Timing.fmt(lsp), Timing.fmt(fwd))
    }
  }

  val fig8 = Table("Eval-I / Fig. 8 -- vary k (gamma=10), time in ms",
    Seq("graph", "k", "LocalSearch-P", "Forward", "OnlineAll"), varyK)
  val fig9 = Table("Eval-I / Fig. 9 -- vary gamma (k=10), time in ms",
    Seq("graph", "gamma", "LocalSearch-P", "Forward", "OnlineAll"), varyGamma)
  val fig10 = Table("Eval-I / Fig. 10 -- large k and gamma, time in ms",
    Seq("graph", "k", "gamma", "LocalSearch-P", "Forward"), largeParams)
}
