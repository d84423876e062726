package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.gen.LocalGen
import repro.ref.Naive

class CountICSpec extends AnyFunSuite {

  test("paperLike γ=3: five keynodes, in increasing weight order") {
    val g = Fixtures.paperLike
    val res = CountIC.run(g, g.n, 3)
    assert(res.count == 5)
    val keyIds = res.keys.map(g.origId).toSeq
    assert(keyIds == Seq(10L, 9L, 4L, 8L, 3L)) // weights 10, 11, 12, 13, 17
  }

  test("paperLike γ=3: groups partition cvs") {
    val g = Fixtures.paperLike
    val res = CountIC.run(g, g.n, 3)
    val regrouped = res.keys.indices.flatMap(res.group(_))
    assert(regrouped == res.cvs.toSeq)
  }

  test("each group starts with its keynode") {
    val g = Fixtures.paperLike
    val res = CountIC.run(g, g.n, 3)
    assert(res.keys.indices.forall(i => res.cvs(res.keyPos(i)) == res.keys(i)))
  }

  test("cvs contains exactly the γ-core vertices") {
    val g = Fixtures.paperLike
    val res = CountIC.run(g, g.n, 3)
    val core = Fixtures.gammaCore(g, 3, g.n).toSet
    assert(res.cvs.toSet == core)
  }

  test("keys are in increasing weight order") {
    val g = LocalGen.localPowerLaw(120, 5, 3)
    val res = CountIC.run(g, g.n, 3)
    val ws = res.keys.map(g.weights)
    assert(ws.toSeq == ws.sorted.toSeq)
  }

  test("triangle-free star has no 3-communities") {
    assert(CountIC.run(Fixtures.star, Fixtures.star.n, 3).count == 0)
  }

  test("γ=1: every connected component yields keynodes") {
    val g = Fixtures.paperLike
    val res = CountIC.run(g, g.n, 1)
    assert(res.count > 0 && res.cvs.length == g.n)
  }

  for (seed <- 1 to 8; gamma <- 2 to 4)
    test(s"keynode set matches the naive definition (seed=$seed γ=$gamma)") {
      val g = LocalGen.localRandom(45, 5.0, seed)
      val res = CountIC.run(g, g.n, gamma)
      assert(res.keys.toSeq == Naive.keynodes(g, gamma),
        "keynodes (increasing weight order)")
    }

  for (seed <- 1 to 4; gamma <- 2 to 4)
    test(s"prefix counting is monotone in the prefix (seed=$seed γ=$gamma)") {
      val g = LocalGen.localPowerLaw(80, 4, seed)
      val counts = (1 to g.n).map(p => CountIC.run(g, p, gamma).count)
      assert(counts.zip(counts.tail).forall { case (a, b) => a <= b },
        "Lemma 3.1: #communities never decreases as τ decreases")
    }

  for (seed <- 1 to 4)
    test(s"progressive stop: cvs of smaller prefix is a suffix of larger (seed=$seed)") {
      val g = LocalGen.localPowerLaw(80, 4, seed)
      val gamma = 3
      val pSmall = g.n / 2
      val small = CountIC.run(g, pSmall, gamma)
      val full = CountIC.run(g, g.n, gamma)
      // keys of the small prefix are the tail of the full keys (§4)
      assert(full.keys.takeRight(small.keys.length).toSeq == small.keys.toSeq)
      assert(full.cvs.takeRight(small.cvs.length).toSeq == small.cvs.toSeq)
      // and the stop-threshold run produces exactly the remaining head
      val head = CountIC.run(g, g.n, gamma, stopBeforeRank = pSmall)
      assert(head.keys.toSeq ++ small.keys.toSeq == full.keys.toSeq)
      assert(head.cvs.toSeq ++ small.cvs.toSeq == full.cvs.toSeq)
    }

  for (seed <- 1 to 6)
    test(s"NC flags match the naive non-containment test (seed=$seed)") {
      val g = LocalGen.localRandom(40, 5.0, seed)
      val gamma = 3
      val expected = Naive.ncKeynodes(g, gamma)
      // Strict prefixes too, where the neighbour scans stop at rank p: half
      // the graph, and the smallest prefix that holds a keynode.
      val prefixes = Seq(g.n, g.n / 2) ++ Naive.keynodes(g, gamma).minOption.map(_ + 1)
      for (p <- prefixes) {
        val res = CountIC.run(g, p, gamma, trackNc = true)
        val flagged = res.keys.indices.filter(res.nc(_)).map(res.keys(_)).toSet
        assert(flagged == expected.filter(_ < p).toSet, s"p = $p")
      }
    }

  test("paperLike NC keynodes are exactly the two cliques'") {
    val g = Fixtures.paperLike
    val res = CountIC.run(g, g.n, 3, trackNc = true)
    val ncIds = res.keys.indices.filter(res.nc(_)).map(i => g.origId(res.keys(i))).toSet
    assert(ncIds == Set(3L, 8L))
  }
}
