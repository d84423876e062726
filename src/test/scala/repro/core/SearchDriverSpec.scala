package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.baseline.{Backward, EdgeStore, Forward, LocalSearchOA, LocalSearchSE, OnlineAll, OnlineAllSE}
import repro.gen.LocalGen
import repro.graph.WGraph
import repro.ref.Naive

/** The local searches that share [[LocalSearch.search]]: their statistics,
  * their start prefix at extreme k, and their argument checks, which the
  * global searches share too.
  */
class SearchDriverSpec extends AnyFunSuite {
  import SearchDriverSpec.Entry

  private def asPairs(cs: Seq[Community]) = cs.map(c => (c.influence, c.members.toSet))

  private val graphs: Map[String, WGraph] = Map(
    "paperLike" -> Fixtures.paperLike,
    "powerLaw150" -> LocalGen.localPowerLaw(150, 5, 6),
    "powerLaw200" -> LocalGen.localPowerLaw(200, 4, 3),
    "random45" -> LocalGen.localRandom(45, 5.0, 3),
  )

  // ------------------------------------------------------------- statistics

  /** (graph, γ, k) → SearchStats of LocalSearch, its NC variant, LocalSearch-OA,
    * LocalSearch-Truss and Backward, then LocalSearch-SE's (edgesRead,
    * peakResidentEdges). The benchmark's replay compares answers and
    * SearchStats field by field, so these figures must not move.
    */
  private val golden = Seq(
    ("paperLike", 2, 5, SearchStats(2, 11, 33L, 49L), SearchStats(3, 12, 35L, 84L), SearchStats(2, 11, 33L, 49L), SearchStats(1, 7, 16L, 16L), SearchStats(3, 9, 24L, 60L), (22L, 22L)),
    ("paperLike", 4, 1, SearchStats(3, 12, 35L, 70L), SearchStats(3, 12, 35L, 70L), SearchStats(3, 12, 35L, 70L), SearchStats(1, 5, 11L, 11L), SearchStats(8, 12, 35L, 180L), (23L, 23L)),
    ("powerLaw150", 2, 5, SearchStats(4, 44, 107L, 195L), SearchStats(7, 150, 772L, 1627L), SearchStats(4, 44, 107L, 195L), SearchStats(1, 7, 12L, 12L), SearchStats(20, 26, 58L, 652L), (63L, 63L)),
    ("powerLaw150", 3, 20, SearchStats(4, 107, 445L, 782L), SearchStats(5, 150, 772L, 1554L), SearchStats(4, 107, 445L, 782L), SearchStats(3, 62, 193L, 337L), SearchStats(67, 89, 296L, 10990L), (338L, 338L)),
    ("powerLaw200", 2, 20, SearchStats(4, 118, 255L, 476L), SearchStats(6, 200, 877L, 1864L), SearchStats(4, 118, 255L, 476L), SearchStats(3, 70, 127L, 221L), SearchStats(97, 118, 255L, 12754L), (137L, 137L)),
    ("powerLaw200", 3, 5, SearchStats(7, 196, 856L, 1642L), SearchStats(8, 200, 877L, 2519L), SearchStats(7, 196, 856L, 1642L), SearchStats(6, 162, 406L, 786L), SearchStats(170, 177, 505L, 34346L), (660L, 660L)),
    ("random45", 2, 5, SearchStats(3, 24, 48L, 80L), SearchStats(5, 45, 157L, 338L), SearchStats(3, 24, 48L, 80L), SearchStats(3, 24, 48L, 80L), SearchStats(18, 24, 48L, 476L), (24L, 24L)),
    ("random45", 3, 1, SearchStats(5, 34, 101L, 186L), SearchStats(5, 34, 101L, 186L), SearchStats(5, 34, 101L, 186L), SearchStats(5, 34, 101L, 186L), SearchStats(26, 29, 74L, 814L), (67L, 67L)),
  )

  for ((name, gamma, k, ls, nc, oa, truss, backward, se) <- golden)
    test(s"search statistics are pinned ($name γ=$gamma k=$k)") {
      val g = graphs(name)
      assert(LocalSearch.topK(g, k, gamma)._2 == ls)
      assert(LocalSearch.topKNonContainment(g, k, gamma)._2 == nc)
      assert(LocalSearchOA.topK(g, k, gamma)._2 == oa)
      assert(Truss.localSearchTopK(g, k, gamma)._2 == truss)
      assert(Backward.topK(g, k, gamma)._2 == backward)
      val seRes = LocalSearchSE.topK(g, EdgeStore.fromGraph(g), k, gamma)
      assert((seRes.edgesRead, seRes.peakResidentEdges) == se)
    }

  // ------------------------------------------------------ k = Int.MaxValue

  for ((name, g) <- graphs.toSeq.sortBy(_._1)) test(s"k = Int.MaxValue returns every community ($name)") {
    val k = Int.MaxValue
    val all = asPairs(Naive.topK(g, k, 3))
    assert(asPairs(LocalSearch.topK(g, k, 3)._1) == all)
    assert(asPairs(LocalSearchP.topK(g, k, 3)) == all)
    assert(asPairs(LocalSearchOA.topK(g, k, 3)._1) == all)
    assert(asPairs(LocalSearchSE.topK(g, EdgeStore.fromGraph(g), k, 3).communities) == all)
    assert(asPairs(Backward.topK(g, k, 3)._1) == all)
    assert(asPairs(LocalSearch.topKNonContainment(g, k, 3)._1) ==
           asPairs(Naive.topKNonContainment(g, k, 3)))
    assert(asPairs(Truss.localSearchTopK(g, k, 4)._1) == asPairs(Naive.topKTruss(g, k, 4)))
  }

  // ------------------------------------------------------ argument checks

  private val entries = {
    val g = Fixtures.paperLike
    Seq(
      Entry("LocalSearch.topK", true, true, LocalSearch.topK(g, _, _, _)),
      Entry("LocalSearch.topKNonContainment", true, true, LocalSearch.topKNonContainment(g, _, _, _)),
      Entry("LocalSearchP.topK", true, true, LocalSearchP.topK(g, _, _, _)),
      Entry("LocalSearchP.iterator", false, true, (_, gamma, delta) => LocalSearchP.iterator(g, gamma, delta).hasNext),
      Entry("Truss.localSearchTopK", true, true, Truss.localSearchTopK(g, _, _, _)),
      Entry("LocalSearchOA.topK", true, true, LocalSearchOA.topK(g, _, _, _)),
      Entry("LocalSearchSE.topK", true, true, LocalSearchSE.topK(g, EdgeStore.fromGraph(g), _, _, _)),
      Entry("Backward.topK", true, false, (k, gamma, _) => Backward.topK(g, k, gamma)),
      Entry("Forward.topK", true, false, (k, gamma, _) => Forward.topK(g, k, gamma)),
      Entry("Forward.topKNonContainment", true, false, (k, gamma, _) => Forward.topKNonContainment(g, k, gamma)),
      Entry("OnlineAll.topK", true, false, (k, gamma, _) => OnlineAll.topK(g, k, gamma)),
      Entry("OnlineAllSE.topK", true, false, (k, gamma, _) => OnlineAllSE.topK(g, EdgeStore.fromGraph(g), k, gamma, 8)),
      Entry("Truss.globalSearchTopK", true, false, (k, gamma, _) => Truss.globalSearchTopK(g, k, gamma)),
    )
  }

  for (e <- entries) test(s"${e.name} rejects k < 1, γ < 1 and δ ≤ 1 or NaN") {
    def rejects(k: Int, gamma: Int, delta: Double, message: String): Unit = {
      val err = intercept[IllegalArgumentException](e.run(k, gamma, delta))
      assert(err.getMessage == s"requirement failed: $message", s"k=$k γ=$gamma δ=$delta")
    }
    if (e.takesK) rejects(0, 3, 2.0, "k must be positive")
    for (gamma <- Seq(0, -1)) rejects(1, gamma, 2.0, "gamma must be positive")
    if (e.takesDelta)
      for (delta <- Seq(1.0, 0.5, Double.NaN)) rejects(1, 3, delta, "growth ratio must exceed 1")
  }
}

object SearchDriverSpec {

  /** An entry point run with (k, γ, δ); the flags say which it takes. */
  private final case class Entry(name: String, takesK: Boolean, takesDelta: Boolean,
                                 run: (Int, Int, Double) => Any)
}
