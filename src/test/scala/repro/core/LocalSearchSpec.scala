package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.gen.LocalGen
import repro.ref.Naive

class LocalSearchSpec extends AnyFunSuite {

  private def asPairs(cs: Seq[Community]) = cs.map(c => (c.influence, c.members.toSet))

  test("paperLike γ=3 top-5 matches fixture") {
    val (got, _) = LocalSearch.topK(Fixtures.paperLike, 5, 3)
    assert(asPairs(got) == Fixtures.paperLikeTop)
  }

  test("k larger than the number of communities returns them all") {
    val (got, _) = LocalSearch.topK(Fixtures.paperLike, 50, 3)
    assert(asPairs(got) == Fixtures.paperLikeTop)
  }

  test("top-1 stops on a small prefix") {
    val g = Fixtures.paperLike
    val (got, stats) = LocalSearch.topK(g, 1, 3)
    assert(asPairs(got) == Fixtures.paperLikeTop.take(1))
    assert(stats.finalPrefix < g.n)
  }

  test("graph without communities returns empty") {
    val (got, _) = LocalSearch.topK(Fixtures.star, 3, 3)
    assert(got.isEmpty)
  }

  test("γ above the degeneracy returns empty") {
    val g = LocalGen.localPowerLaw(60, 4, 2)
    val gmax = repro.exp.Datasets.gammaMax(g)
    val (got, _) = LocalSearch.topK(g, 5, gmax + 1)
    assert(got.isEmpty)
  }

  test("k must be positive") {
    intercept[IllegalArgumentException](LocalSearch.topK(Fixtures.paperLike, 0, 3))
  }

  test("delta must exceed 1") {
    intercept[IllegalArgumentException](LocalSearch.topK(Fixtures.paperLike, 1, 3, delta = 1.0))
  }

  for (seed <- 1 to 8; gamma <- 2 to 4; k <- Seq(1, 3, 10))
    test(s"matches naive top-k (seed=$seed γ=$gamma k=$k)") {
      val g = LocalGen.localRandom(45, 5.0, seed)
      val (got, _) = LocalSearch.topK(g, k, gamma)
      assert(asPairs(got) == asPairs(Naive.topK(g, k, gamma)))
    }

  for (delta <- Seq(1.5, 3.0, 8.0, 64.0))
    test(s"result is independent of delta ($delta)") {
      val g = LocalGen.localPowerLaw(100, 5, 4)
      val base = asPairs(LocalSearch.topK(g, 7, 3)._1)
      assert(asPairs(LocalSearch.topK(g, 7, 3, delta)._1) == base)
    }

  for (seed <- 1 to 5)
    test(s"instance-optimality bound: accessed ≤ 2δ·size(G≥τ*) (seed=$seed)") {
      val g = LocalGen.localPowerLaw(150, 5, seed)
      val gamma = 3
      val k = 5
      val keys = Naive.keynodes(g, gamma)
      if (keys.length >= k) {
        // τ* = weight of the k-th highest keynode; G≥τ* = prefix of its rank+1
        val tauStarRank = keys.takeRight(k).head
        val optSize = g.prefixSize(tauStarRank + 1)
        val (_, stats) = LocalSearch.topK(g, k, gamma, delta = 2.0)
        assert(stats.accessedSize <= math.max(4 * optSize, g.prefixSize(k + gamma) * 4),
          s"accessed=${stats.accessedSize} opt=$optSize (Lemma 3.8 with δ=2)")
      }
    }

  test("work is linear in the accessed prefix (Lemma 3.7 flavour)") {
    val g = LocalGen.localPowerLaw(200, 5, 9)
    val (_, stats) = LocalSearch.topK(g, 5, 3, delta = 2.0)
    // Σ size(G≥τ_i) ≤ (1 + 1/(δ−1)) · size(G≥τ_h) = 2 · accessed for δ=2
    assert(stats.workSize <= 2 * stats.accessedSize + stats.rounds)
  }
}
