package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.gen.LocalGen
import repro.ref.Naive

class TrussSpec extends AnyFunSuite {

  private def asPairs(cs: Seq[Community]) = cs.map(c => (c.influence, c.members.toSet))

  test("support of a 4-clique edge is 2") {
    val g = repro.graph.WGraph((0L to 3L).map(i => i -> (10.0 - i)),
      for (i <- 0L to 3L; j <- i + 1 to 3L) yield (i, j))
    val peeler = new TrussPeeler(g, g.n, 4)
    assert(peeler.support.forall(_ == 2))
  }

  test("triangle-free graph reduces to an empty 3-truss") {
    val g = Fixtures.star
    val peeler = new TrussPeeler(g, g.n, 3)
    peeler.reduceToTruss()
    assert(peeler.eAlive.forall(!_))
    assert(peeler.vDeg.forall(_ == 0))
  }

  test("a 4-clique survives 4-truss reduction") {
    val g = repro.graph.WGraph((0L to 3L).map(i => i -> (10.0 - i)),
      for (i <- 0L to 3L; j <- i + 1 to 3L) yield (i, j))
    val peeler = new TrussPeeler(g, g.n, 4)
    peeler.reduceToTruss()
    assert(peeler.eAlive.forall(identity))
  }

  for (seed <- 1 to 6; gamma <- 3 to 5)
    test(s"truss reduction matches naive fixpoint (seed=$seed γ=$gamma)") {
      val g = LocalGen.localRandom(30, 6.0, seed)
      val peeler = new TrussPeeler(g, g.n, gamma)
      peeler.reduceToTruss()
      val alive = (0 until peeler.mEdges).filter(peeler.eAlive(_))
        .map(e => (peeler.eA(e), peeler.eB(e)))
        .map { case (a, b) => (math.min(a, b), math.max(a, b)) }.toSet
      assert(alive == Naive.gammaTrussEdges(g, gamma, g.n))
    }

  test("paperLike γ=4 truss keynodes") {
    val g = Fixtures.paperLike
    val res = Truss.countICC(g, g.n, 4)
    val keyIds = res.keys.map(g.origId).toSeq
    assert(keyIds == Seq(9L, 4L, 8L, 3L)) // weights 11, 12, 13, 17
  }

  test("paperLike γ=4 communities match the truss fixture") {
    val got = Truss.globalSearchTopK(Fixtures.paperLike, 4, 4)
    assert(asPairs(got) == Fixtures.paperLikeTruss4)
  }

  test("edge groups partition the truss cvs") {
    val g = Fixtures.paperLike
    val res = Truss.countICC(g, g.n, 4)
    val regrouped = res.keys.indices.flatMap(res.group(_))
    assert(regrouped == res.cvs.toSeq)
  }

  for (seed <- 1 to 6; gamma <- 3 to 4)
    test(s"truss keynodes match naive (seed=$seed γ=$gamma)") {
      val g = LocalGen.localRandom(30, 6.0, seed)
      val res = Truss.countICC(g, g.n, gamma)
      assert(res.keys.toSeq == Naive.trussKeynodes(g, gamma))
    }

  for (seed <- 1 to 6; gamma <- 3 to 4)
    test(s"truss communities match naive (seed=$seed γ=$gamma)") {
      val g = LocalGen.localRandom(30, 6.0, seed)
      val got = Truss.globalSearchTopK(g, Int.MaxValue - 10, gamma)
      val expected = Naive.topKTruss(g, Int.MaxValue - 10, gamma)
      assert(asPairs(got) == asPairs(expected))
    }

  for (seed <- 1 to 5; k <- Seq(1, 3))
    test(s"LocalSearch-Truss equals GlobalSearch-Truss (seed=$seed k=$k)") {
      val g = LocalGen.localRandom(40, 6.0, seed + 50)
      val (local, stats) = Truss.localSearchTopK(g, k, 3)
      val global = Truss.globalSearchTopK(g, k, 3)
      assert(asPairs(local) == asPairs(global))
      assert(stats.rounds >= 1)
    }

  test("γ-truss communities sit inside (γ−1)-core communities of same influence") {
    val g = LocalGen.localPowerLaw(80, 6, 12)
    val gamma = 4
    for (c <- Truss.globalSearchTopK(g, 5, gamma)) {
      val keyRank = g.rankOf(c.keyId)
      val coreCommunity = Naive.communityOf(g, gamma - 1, keyRank)
      assert(coreCommunity.isDefined, s"no (γ−1)-community for key ${c.keyId}")
      val coreSet = coreCommunity.get.map(g.origId).toSet
      assert(c.members.forall(coreSet.contains))
    }
  }

  test("every γ-truss keynode is also a (γ−1)-core keynode") {
    val g = LocalGen.localPowerLaw(80, 6, 13)
    for (gamma <- 3 to 4) {
      val trussKeys = Truss.countICC(g, g.n, gamma).keys.toSet
      val coreKeys = CountIC.run(g, g.n, gamma - 1).keys.toSet
      assert(trussKeys.subsetOf(coreKeys), s"γ=$gamma")
    }
  }
}
