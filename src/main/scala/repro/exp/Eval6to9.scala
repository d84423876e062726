package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baseline.{EdgeStore, Forward, LocalSearchSE, OnlineAllSE}
import repro.core.{LocalSearch, LocalSearchP, Truss}
import repro.graph.GraphOps

/** Eval-VI (Figs. 16–17): semi-external algorithms on the two largest
  * graphs. The paper's 1 GB edge budget is scaled to the stand-ins as a
  * fixed edge budget; OnlineAll-SE always scans all edges, LocalSearch-SE
  * only the final prefix. Fig. 16 = time, Fig. 17 = resident memory (edges).
  */
object Eval6 {

  val budgetEdges = 131072

  def rows(spark: SparkSession): Seq[Seq[String]] =
    for {
      name <- Seq("arabic-s", "twitter-s")
      g = Datasets.graph(spark, name)
      store = EdgeStore.fromGraph(g) // built once, outside the timed runs
      (oaRes, oaMs) = Timing.measure {
        store.edgesRead = 0L // the I/O columns count the last run only
        OnlineAllSE.topK(g, store, 10, 10, budgetEdges)
      }
      k <- Seq(5, 10, 20, 50, 100)
    } yield {
      val (lsRes, lsMs) = Timing.measure {
        store.edgesRead = 0L
        LocalSearchSE.topK(g, store, k, 10)
      }
      Seq(name, k.toString,
          Timing.fmt(lsMs), Timing.fmt(oaMs),
          lsRes.edgesRead.toString, oaRes.edgesRead.toString,
          lsRes.peakResidentEdges.toString, oaRes.peakResidentEdges.toString)
    }

  val table = Table("Eval-VI / Figs. 16-17 -- semi-external (gamma=10): time, I/O, memory",
    Seq("graph", "k", "LS-SE ms", "OA-SE ms", "LS-SE edges read",
        "OA-SE edges read", "LS-SE resident", "OA-SE resident"), rows)
}

/** Eval-VII (Fig. 18): non-containment queries — LocalSearch-P (NC mode)
  * against the non-containment variant of Forward.
  */
object Eval7 {

  def rows(spark: SparkSession): Seq[Seq[String]] =
    for {
      // bands-s is included because its weight-banded blocks give it many
      // distinct NC communities, like the paper's real graphs. The RMAT
      // stand-ins are deeply *nested* single chains with one NC community,
      // and dblp-s also has one at γ = 5, so on them only k=1 exercises the
      // locality win (see EXPERIMENTS.md).
      name <- Datasets.specs.map(_.name) ++ Seq("dblp-s", "bands-s")
      g = name match {
        case "dblp-s"  => Datasets.dblp(spark)
        case "bands-s" => Datasets.bands(spark)
        case _         => Datasets.graph(spark, name)
      }
      gamma = name match { // density floor of the planted/banded blocks
        case "dblp-s" => 5; case "bands-s" => 6; case _ => 10
      }
      // total NC communities: once k exceeds this, any correct algorithm
      // must touch the whole graph and locality gains vanish
      ncTotal = repro.core.CountIC.run(g, g.n, gamma, trackNc = true).ncCount
      k <- Seq(1, 5, 10, 20, 50, 100)
    } yield {
      val lsp = Timing.ms(LocalSearchP.topK(g, k, gamma, ncOnly = true))
      val fwd = Timing.ms(Forward.topKNonContainment(g, k, gamma))
      Seq(name, gamma.toString, k.toString, ncTotal.toString,
          Timing.fmt(lsp), Timing.fmt(fwd))
    }

  val table = Table("Eval-VII / Fig. 18 -- non-containment queries, ms",
    Seq("graph", "gamma", "k", "#NC total", "LocalSearch-P", "Forward"), rows)
}

/** Eval-VIII (Fig. 19): influential γ-truss community search —
  * LocalSearch-Truss vs GlobalSearch-Truss (γ = 10), smaller graphs (the
  * truss peel is O(m^1.5)). GlobalSearch-Truss is k-independent and measured
  * once per graph.
  */
object Eval8 {

  def rows(spark: SparkSession): Seq[Seq[String]] =
    for {
      name <- Datasets.smallNames
      g = Datasets.graph(spark, name)
      globalMs = Timing.ms(Truss.globalSearchTopK(g, 10, 10))
      k <- Seq(5, 10, 20, 50, 100)
    } yield {
      val local = Timing.ms(Truss.localSearchTopK(g, k, 10))
      Seq(name, k.toString, Timing.fmt(local), Timing.fmt(globalMs))
    }

  val table = Table("Eval-VIII / Fig. 19 -- gamma-truss communities (gamma=10), ms",
    Seq("graph", "k", "LocalSearch-Truss", "GlobalSearch-Truss"), rows)
}

/** Eval-IX (Figs. 20–21): case study on the DBLP-like planted graph — the
  * top-1 influential 5-community vs the top-1 6-truss community, plus the
  * size of the plain 5-core community containing the former (the paper's
  * point: the influential community refines a 1,148-vertex core community
  * to its influential members, and the truss community is smaller/denser
  * but has lower influence; every γ-truss community lies inside a
  * (γ−1)-community of the same influence).
  */
object Eval9 {

  def rows(spark: SparkSession): Seq[Seq[String]] = {
    val g = Datasets.dblp(spark)
    val (core5, _) = LocalSearch.topK(g, 1, 5)
    val (truss6, _) = Truss.localSearchTopK(g, 1, 6)
    val c5 = core5.head
    val t6 = truss6.head
    // rank (1 = highest weight) of each community's minimum-weight vertex
    def keyRank(keyId: Long): Int = g.rankOf(keyId) + 1
    // size of the whole connected 5-core component around the 5-community key
    val coreMembers = GraphOps.gammaCore(g, 5, g.n)
    val comp = GraphOps.components(g, coreMembers, g.n)
    val keyR = g.rankOf(c5.keyId)
    val coreCompSize = if (comp(keyR) == -1) 0 else comp.count(_ == comp(keyR))
    // the (γ−1)-community claim: the 6-truss community's members all sit in
    // the influential 5-community with the same keynode, the component of
    // that key in the 5-core of the prefix down to it
    val t6KeyRank = g.rankOf(t6.keyId)
    val comp6 = GraphOps.components(g, GraphOps.gammaCore(g, 5, t6KeyRank + 1), t6KeyRank + 1)
    val in5Community = comp6(t6KeyRank) != -1 &&
      t6.members.map(g.rankOf).forall(r => r <= t6KeyRank && comp6(r) == comp6(t6KeyRank))
    Seq(
      Seq("top-1 influential 5-community size", c5.members.length.toString),
      Seq("  its min-weight vertex rank", s"${keyRank(c5.keyId)} / ${g.n}"),
      Seq("  5-core community of that vertex (Fig. 21 analogue)", coreCompSize.toString),
      Seq("top-1 influential 6-truss community size", t6.members.length.toString),
      Seq("  its min-weight vertex rank", s"${keyRank(t6.keyId)} / ${g.n}"),
      Seq("6-truss community inside 5-community of same key", in5Community.toString),
      Seq("truss influence <= core influence", (t6.influence <= c5.influence).toString),
    )
  }

  val table = Table("Eval-IX / Figs. 20-21 -- DBLP-like case study",
    Seq("measure", "value"), rows)
}
