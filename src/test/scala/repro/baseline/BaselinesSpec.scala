package repro.baseline

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.core.{Community, LocalSearch}
import repro.gen.LocalGen
import repro.ref.Naive

class BaselinesSpec extends AnyFunSuite {

  private def asPairs(cs: Seq[Community]) = cs.map(c => (c.influence, c.members.toSet))

  // ---------------------------------------------------------------- OnlineAll

  test("OnlineAll paperLike γ=3 top-5 matches fixture") {
    val (got, _) = OnlineAll.topK(Fixtures.paperLike, 5, 3)
    assert(asPairs(got) == Fixtures.paperLikeTop)
  }

  test("OnlineAll reports work proportional to component traversals") {
    val (_, visits) = OnlineAll.topK(Fixtures.paperLike, 5, 3)
    assert(visits > 0)
  }

  for (seed <- 1 to 6; gamma <- 2 to 4)
    test(s"OnlineAll matches naive (seed=$seed γ=$gamma)") {
      val g = LocalGen.localRandom(40, 5.0, seed)
      val (got, _) = OnlineAll.topK(g, 5, gamma)
      assert(asPairs(got) == asPairs(Naive.topK(g, 5, gamma)))
    }

  // ------------------------------------------------------------------ Forward

  test("Forward paperLike γ=3 top-3 matches fixture") {
    assert(asPairs(Forward.topK(Fixtures.paperLike, 3, 3)) == Fixtures.paperLikeTop.take(3))
  }

  for (seed <- 1 to 6; gamma <- 2 to 4; k <- Seq(1, 4))
    test(s"Forward matches naive (seed=$seed γ=$gamma k=$k)") {
      val g = LocalGen.localRandom(40, 5.0, seed)
      assert(asPairs(Forward.topK(g, k, gamma)) == asPairs(Naive.topK(g, k, gamma)))
    }

  for (seed <- 1 to 5)
    test(s"Forward NC matches naive NC (seed=$seed)") {
      val g = LocalGen.localRandom(40, 5.0, seed)
      assert(asPairs(Forward.topKNonContainment(g, 5, 3)) ==
             asPairs(Naive.topKNonContainment(g, 5, 3)))
    }

  // ----------------------------------------------------------------- Backward

  test("Backward paperLike γ=3 top-5 matches fixture") {
    val (got, _) = Backward.topK(Fixtures.paperLike, 5, 3)
    assert(asPairs(got) == Fixtures.paperLikeTop)
  }

  for (seed <- 1 to 5; k <- Seq(2, 5))
    test(s"Backward matches LocalSearch (seed=$seed k=$k)") {
      val g = LocalGen.localRandom(45, 5.0, seed)
      val (bwd, bwdStats) = Backward.topK(g, k, 3)
      val (ls, lsStats) = LocalSearch.topK(g, k, 3)
      assert(asPairs(bwd) == asPairs(ls))
      // quadratic signature: Backward never does less total work
      assert(bwdStats.workSize >= lsStats.accessedSize)
    }

  test("Backward's work is quadratic-in-prefix on a long search") {
    val g = LocalGen.localPowerLaw(200, 4, 3)
    val (_, stats) = Backward.topK(g, 10, 3)
    // one CountIC per added vertex: rounds ≈ prefix − (k+γ) + 1
    assert(stats.rounds >= stats.finalPrefix - 13 + 1)
  }

  // ------------------------------------------------------------ LocalSearchOA

  test("LocalSearch-OA paperLike γ=3 matches fixture") {
    val (got, _) = LocalSearchOA.topK(Fixtures.paperLike, 5, 3)
    assert(asPairs(got) == Fixtures.paperLikeTop)
  }

  for (seed <- 1 to 5; k <- Seq(2, 6))
    test(s"LocalSearch-OA matches LocalSearch (seed=$seed k=$k)") {
      val g = LocalGen.localRandom(45, 5.0, seed + 10)
      val (oa, _) = LocalSearchOA.topK(g, k, 3)
      val (ls, _) = LocalSearch.topK(g, k, 3)
      assert(asPairs(oa) == asPairs(ls))
    }

  test("all five algorithms agree on a power-law graph") {
    val g = LocalGen.localPowerLaw(150, 5, 6)
    val k = 8
    val expected = asPairs(LocalSearch.topK(g, k, 3)._1)
    assert(asPairs(OnlineAll.topK(g, k, 3)._1) == expected)
    assert(asPairs(Forward.topK(g, k, 3)) == expected)
    assert(asPairs(Backward.topK(g, k, 3)._1) == expected)
    assert(asPairs(LocalSearchOA.topK(g, k, 3)._1) == expected)
  }
}

class SemiExternalSpec extends AnyFunSuite {

  private def asPairs(cs: Seq[Community]) = cs.map(c => (c.influence, c.members.toSet))

  test("EdgeStore lists edges in decreasing edge-weight order") {
    val g = Fixtures.paperLike
    val store = EdgeStore.fromGraph(g)
    val maxRanks = store.read(0, store.totalEdges).map(e => (e >>> 32).toInt)
    assert(maxRanks.toSeq == maxRanks.sorted.toSeq)
    assert(store.totalEdges == g.m)
  }

  test("EdgeStore counts reads") {
    val store = EdgeStore.fromGraph(Fixtures.paperLike)
    store.read(0, 5)
    store.read(5, 7)
    assert(store.edgesRead == 7)
  }

  test("LocalSearch-SE matches LocalSearch and reads only the final prefix") {
    val g = LocalGen.localPowerLaw(150, 5, 6)
    val store = EdgeStore.fromGraph(g)
    val res = LocalSearchSE.topK(g, store, 5, 3)
    val (expected, stats) = LocalSearch.topK(g, 5, 3)
    assert(asPairs(res.communities) == asPairs(expected))
    assert(res.edgesRead == g.prefixEdges(stats.finalPrefix))
    assert(res.edgesRead <= g.m)
  }

  test("OnlineAll-SE matches OnlineAll and scans every edge") {
    val g = LocalGen.localPowerLaw(120, 5, 9)
    val store = EdgeStore.fromGraph(g)
    val res = OnlineAllSE.topK(g, store, 5, 3, budgetEdges = 64)
    val (expected, _) = OnlineAll.topK(g, 5, 3)
    assert(asPairs(res.communities) == asPairs(expected))
    assert(res.edgesRead == g.m)
    assert(res.peakResidentEdges == 64)
  }

  test("LocalSearch-SE resident memory is below OnlineAll-SE's budget on a local query") {
    val g = LocalGen.localPowerLaw(200, 5, 10)
    val lsRes = LocalSearchSE.topK(g, EdgeStore.fromGraph(g), 1, 3)
    assert(lsRes.peakResidentEdges <= g.m)
    assert(lsRes.edgesRead == lsRes.peakResidentEdges)
  }

  for (seed <- 1 to 4)
    test(s"SE and in-memory results agree (seed=$seed)") {
      val g = LocalGen.localRandom(50, 5.0, seed)
      val se = LocalSearchSE.topK(g, EdgeStore.fromGraph(g), 4, 3)
      assert(asPairs(se.communities) == asPairs(Naive.topK(g, 4, 3)))
    }
}
