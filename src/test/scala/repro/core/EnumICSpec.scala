package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.gen.LocalGen
import repro.ref.Naive

class EnumICSpec extends AnyFunSuite {

  private def enumerate(g: repro.graph.WGraph, gamma: Int, k: Int): Seq[Community] = {
    val res = CountIC.run(g, g.n, gamma)
    val idx = new CommunityIndex(g)
    val from = math.max(0, res.keys.length - k)
    idx.process(res, g.n, from)
    (res.keys.length - 1 to from by -1).map(i => idx.community(res.keys(i)))
  }

  test("paperLike γ=3 top-5 communities match the expected fixture") {
    val got = enumerate(Fixtures.paperLike, 3, 5)
    assert(got.map(c => (c.influence, c.members.toSet)) == Fixtures.paperLikeTop)
  }

  test("communities come out in decreasing influence order") {
    val got = enumerate(LocalGen.localPowerLaw(100, 5, 5), 3, 20)
    assert(got.map(_.influence).sliding(2).forall { case Seq(a, b) => a > b; case _ => true })
  }

  test("nested communities share members (12 contains 17's clique)") {
    val got = enumerate(Fixtures.paperLike, 3, 5)
    val by = got.map(c => c.influence -> c.members.toSet).toMap
    assert(by(17.0).subsetOf(by(12.0)))
    assert(by(13.0).subsetOf(by(11.0)))
    assert(got.map(_.members.toSet).forall(_.subsetOf(by(10.0))))
  }

  test("memberRanks memoisation: repeated materialisation is identical") {
    val g = Fixtures.paperLike
    val res = CountIC.run(g, g.n, 3)
    val idx = new CommunityIndex(g)
    idx.process(res, g.n, 0)
    val k = res.keys(0)
    assert(idx.community(k).members.toSeq == idx.community(k).members.toSeq)
  }

  test("communitySize agrees with materialised size") {
    val g = LocalGen.localPowerLaw(100, 5, 11)
    val res = CountIC.run(g, g.n, 3)
    val idx = new CommunityIndex(g)
    idx.process(res, g.n, 0)
    for (u <- res.keys)
      assert(idx.communitySize(u) == idx.community(u).members.length)
  }

  test("last-k restriction produces the same communities as full processing") {
    val g = LocalGen.localPowerLaw(90, 5, 6)
    val full = enumerate(g, 3, Int.MaxValue)
    val top3 = enumerate(g, 3, 3)
    assert(top3.map(c => (c.influence, c.members.toSeq)) ==
           full.take(3).map(c => (c.influence, c.members.toSeq)))
  }

  for (seed <- 1 to 8; gamma <- 2 to 4)
    test(s"every enumerated community matches the naive IC (seed=$seed γ=$gamma)") {
      val g = LocalGen.localRandom(40, 5.0, seed)
      val res = CountIC.run(g, g.n, gamma)
      val idx = new CommunityIndex(g)
      idx.process(res, g.n, 0)
      for (u <- res.keys) {
        val got = idx.community(u).members.toSeq
        val expected = Naive.communityOf(g, gamma, u).get.map(g.origId).sorted.toSeq
        assert(got == expected, s"IC of key rank $u")
      }
    }

  for (seed <- 1 to 4)
    test(s"communities satisfy connectivity and cohesiveness (seed=$seed)") {
      val g = LocalGen.localPowerLaw(80, 5, seed)
      val gamma = 3
      for (c <- enumerate(g, gamma, 10)) {
        val ranks = c.members.map(g.rankOf).toSet
        // cohesive: min internal degree ≥ γ
        for (u <- ranks) {
          var d = 0
          g.foreachNeighborIn(u, g.n)(w => if (ranks(w)) d += 1)
          assert(d >= gamma, s"vertex ${g.origId(u)} degree $d < $gamma")
        }
        // connected: BFS from the keynode covers all members
        val comp = repro.graph.GraphOps.components(g, ranks.toArray, g.n)
        assert(comp.count(_ >= 0) == ranks.size && comp.filter(_ >= 0).distinct.length == 1)
      }
    }

  // ------------------------------------------------ materialisation by merge

  private def asPairs(cs: Seq[Community]) = cs.map(c => (c.influence, c.members.toSeq))

  test("many children: the hub's community merges one sorted run per clique") {
    val g = Fixtures.cliquesWithHub(5, 5)
    for (k <- Seq(1, 6, Int.MaxValue)) {
      val expected = asPairs(Naive.topK(g, k, 3))
      assert(asPairs(LocalSearch.topK(g, k, 3)._1) == expected, s"LocalSearch k=$k")
      assert(asPairs(LocalSearchP.topK(g, k, 3)) == expected, s"LocalSearch-P k=$k")
      assert(asPairs(Truss.localSearchTopK(g, k, 4)._1) == asPairs(Naive.topKTruss(g, k, 4)),
             s"LocalSearch-Truss k=$k")
    }
    // The hub's community is 5 disjoint clique communities plus the hub: a
    // merge of 6 runs whose ids interleave.
    val all = LocalSearch.topK(g, Int.MaxValue, 3)._1
    val cliques = all.filter(_.members.length == 5)
    assert(cliques.length == 5 && cliques.flatMap(_.members).distinct.length == 25)
    assert(all.last.members.toSeq == (0L to 25L))
  }

  private val mergeGraphs = Seq(
    "cliques with hub" -> Fixtures.cliquesWithHub(4, 6),
    "nested chain" -> Fixtures.nestedChain(60, 3),
    "paperLike" -> Fixtures.paperLike,
    "power-law" -> LocalGen.localPowerLaw(100, 5, 5),
  )

  for ((name, g) <- mergeGraphs)
    test(s"LocalSearch-P communities materialised in any order equal Naive ($name)") {
      val expected = asPairs(Naive.topK(g, Int.MaxValue, 3))
      def materialised(order: Seq[Int] => Seq[Int]): Seq[Community] = {
        val reported = LocalSearchP.iterator(g, 3).toVector
        val got = new Array[Community](reported.length)
        for (i <- order(reported.indices)) got(i) = reported(i).materialise()
        got.toSeq
      }
      assert(asPairs(materialised(identity)) == expected, "forward")
      assert(asPairs(materialised(_.reverse)) == expected, "reverse")
      assert(asPairs(materialised(_.flatMap(i => Seq(i, i)))) == expected, "each twice")
      assert(asPairs(materialised(is => is.reverse.flatMap(i => Seq(i, i)))) == expected,
             "reverse, each twice")
    }

  test("kept slots hold at most the prefix in any order (3,000-deep chain)") {
    val g = Fixtures.nestedChain(3000, 3)
    val res = CountIC.run(g, g.n, 3)
    // keys(0) is the outermost community and every later key is nested in it.
    def most(order: Seq[Int]): Long = {
      val idx = new CommunityIndex(g)
      idx.process(res, g.n, 0)
      order.map { i =>
        val c = idx.community(res.keys(i))
        assert(c.members.length == c.keyId + 1 && c.members.indices.forall(j => c.members(j) == j))
        idx.keptIds
      }.max
    }
    val keys = res.keys.indices
    assert(most(keys.reverse) <= g.n, "children first")
    assert(most(keys) <= g.n, "parents first")
    assert(most(keys.filter(_ % 2 == 0)) <= g.n, "every other one, parents first")
    assert(most(keys.filter(_ % 2 == 0) ++ keys.reverse) <= g.n, "then all, children first")
  }

  test("overwriting a returned community's members does not corrupt its parent") {
    val g = Fixtures.cliquesWithHub(4, 6)
    val expected = asPairs(Naive.topK(g, Int.MaxValue, 3))
    val reported = LocalSearchP.iterator(g, 3).toVector
    val children = reported.init.map(_.materialise())
    for (c <- children) java.util.Arrays.fill(c.members, -1L)
    assert(asPairs(Seq(reported.last.materialise())) == expected.takeRight(1), "parent")
    assert(asPairs(reported.map(_.materialise())) == expected, "all again")
  }
}
