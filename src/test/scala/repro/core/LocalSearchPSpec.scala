package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.gen.LocalGen
import repro.ref.Naive

class LocalSearchPSpec extends AnyFunSuite {

  private def asPairs(cs: Seq[Community]) = cs.map(c => (c.influence, c.members.toSet))

  test("paperLike γ=3: progressive order matches the fixture") {
    val got = LocalSearchP.topK(Fixtures.paperLike, 5, 3)
    assert(asPairs(got) == Fixtures.paperLikeTop)
  }

  test("reports strictly decreasing influence values") {
    val g = LocalGen.localPowerLaw(120, 5, 8)
    val inf = LocalSearchP.iterator(g, 3).map(_.influence).toSeq
    assert(inf.sliding(2).forall { case Seq(a, b) => a > b; case _ => true })
  }

  test("full progressive enumeration equals the full LocalSearch enumeration") {
    val g = LocalGen.localPowerLaw(100, 5, 3)
    val all = LocalSearchP.iterator(g, 3).map(_.materialise()).toSeq
    val (reference, _) = LocalSearch.topK(g, Int.MaxValue - 10, 3)
    assert(asPairs(all) == asPairs(reference))
  }

  test("k is not needed: taking any prefix matches LocalSearch with that k") {
    val g = LocalGen.localPowerLaw(100, 5, 14)
    for (k <- Seq(1, 2, 5, 9)) {
      val progressive = LocalSearchP.topK(g, k, 3)
      val (batch, _) = LocalSearch.topK(g, k, 3)
      assert(asPairs(progressive) == asPairs(batch), s"k=$k")
    }
  }

  test("sizes reported without materialisation are correct") {
    val g = LocalGen.localPowerLaw(90, 5, 4)
    for (r <- LocalSearchP.iterator(g, 3).take(10).toSeq)
      assert(r.size == r.materialise().members.length)
  }

  test("empty graph yields an empty iterator") {
    val g = repro.graph.WGraph(Nil, Nil)
    assert(!LocalSearchP.iterator(g, 3).hasNext)
  }

  test("graph without communities yields an empty iterator") {
    assert(!LocalSearchP.iterator(Fixtures.star, 3).hasNext)
  }

  for (seed <- 1 to 6; gamma <- 2 to 4)
    test(s"progressive equals naive for every k prefix (seed=$seed γ=$gamma)") {
      val g = LocalGen.localRandom(40, 5.0, seed)
      val all = LocalSearchP.iterator(g, gamma).map(_.materialise()).toSeq
      val expectedAll = Naive.topK(g, Int.MaxValue - 10, gamma)
      assert(asPairs(all) == asPairs(expectedAll))
    }

  test("a 200,000-deep nested chain: size and materialise return the whole chain") {
    val n = 200000
    val g = Fixtures.nestedChain(n, 2)
    val reported = LocalSearchP.iterator(g, 2).toVector
    assert(reported.length == n - 2)
    val last = reported.last
    assert(last.size == n)
    assert(last.materialise().members.toSeq == (0L until n.toLong))
  }

  test("topK links exactly the keys it reports, and the NC iterator links none") {
    val g = LocalGen.localPowerLaw(150, 5, 6)
    for (k <- Seq(1, 5, 12, 30)) {
      // The round that reaches the k-th key finds more than k keys in all.
      val found = LocalSearch.rounds(g, 1L + 3, g.deltaStep(2.0)).map(r => CountIC.run(g, r.p, 3).count)
      assert(found.find(_ >= k).exists(_ > k), s"k=$k")
      // As topK consumes the iterator: k keys, each materialised.
      val it = LocalSearchP.iterator(g, 3)
      val reported = Vector.fill(k)(it.next())
      reported.foreach(_.materialise())
      assert(reported.head.index.linked == k, s"k=$k")
      assert(it.hasNext && reported.head.index.linked == k, s"k=$k")
    }
    val nc = LocalSearchP.iterator(g, 3, ncOnly = true).toVector
    assert(nc.nonEmpty && nc.forall(_.index.linked == 0))
  }

  for (delta <- Seq(1.5, 4.0, 32.0))
    test(s"progressive output independent of delta ($delta)") {
      val g = LocalGen.localPowerLaw(80, 5, 21)
      val base = asPairs(LocalSearchP.topK(g, 8, 3))
      assert(asPairs(LocalSearchP.topK(g, 8, 3, delta)) == base)
    }
}

class NonContainmentSpec extends AnyFunSuite {

  private def asPairs(cs: Seq[Community]) = cs.map(c => (c.influence, c.members.toSet))

  test("paperLike γ=3 NC communities are the two cliques") {
    val (got, _) = LocalSearch.topKNonContainment(Fixtures.paperLike, 5, 3)
    assert(asPairs(got) == Fixtures.paperLikeNc)
  }

  test("NC communities are pairwise disjoint") {
    val g = LocalGen.localPowerLaw(120, 5, 5)
    val (got, _) = LocalSearch.topKNonContainment(g, 20, 3)
    val sets = got.map(_.members.toSet)
    for (i <- sets.indices; j <- i + 1 until sets.size)
      assert(sets(i).intersect(sets(j)).isEmpty)
  }

  for (seed <- 1 to 6; k <- Seq(2, 5))
    test(s"NC top-k matches naive (seed=$seed k=$k)") {
      val g = LocalGen.localRandom(40, 5.0, seed)
      val (got, _) = LocalSearch.topKNonContainment(g, k, 3)
      assert(asPairs(got) == asPairs(Naive.topKNonContainment(g, k, 3)))
    }

  for (seed <- 1 to 4)
    test(s"progressive NC mode matches batch NC (seed=$seed)") {
      val g = LocalGen.localRandom(50, 5.0, seed + 100)
      val progressive = LocalSearchP.topK(g, 5, 3, ncOnly = true)
      val (batch, _) = LocalSearch.topKNonContainment(g, 5, 3)
      assert(asPairs(progressive) == asPairs(batch))
    }

  test("every NC community is one of the regular communities") {
    val g = LocalGen.localPowerLaw(100, 5, 17)
    val (nc, _) = LocalSearch.topKNonContainment(g, 10, 3)
    val all = asPairs(LocalSearch.topK(g, Int.MaxValue - 10, 3)._1).toSet
    assert(asPairs(nc).forall(all.contains))
  }
}
