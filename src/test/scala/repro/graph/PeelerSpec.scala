package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.Fixtures.{components, foreachNeighborIn, gammaCore}
import repro.exp.Datasets
import repro.gen.LocalGen
import repro.ref.Naive
import repro.util.IntArrayList

class PeelerSpec extends AnyFunSuite {

  test("paperLike γ=3 core drops the pendant and keeps the rest") {
    val g = Fixtures.paperLike
    val core = gammaCore(g, 3, g.n).map(g.origId).toSet
    assert(core == (0L to 10L).toSet) // pendant id 11 is out
  }

  test("star graph has empty 2-core") {
    assert(gammaCore(Fixtures.star, 2, Fixtures.star.n).isEmpty)
  }

  test("γ=0 core keeps everything") {
    val g = Fixtures.paperLike
    assert(gammaCore(g, 0, g.n).length == g.n)
  }

  for (seed <- 1 to 6; gamma <- 1 to 4)
    test(s"γ-core matches naive fixpoint (seed=$seed γ=$gamma)") {
      val g = LocalGen.localRandom(50, 5.0, seed)
      val expected = Naive.gammaCore(g, gamma, g.n)
      assert(gammaCore(g, gamma, g.n).toSet == expected)
    }

  for (seed <- 1 to 3; p <- Seq(10, 25, 40))
    test(s"prefix γ-core matches naive (seed=$seed p=$p)") {
      val g = LocalGen.localRandom(50, 5.0, seed)
      assert(gammaCore(g, 3, p).toSet == Naive.gammaCore(g, 3, p))
    }

  test("degrees after reduceToCore are consistent") {
    val g = LocalGen.localRandom(60, 6.0, 42)
    val peeler = new Peeler(g, g.n, 3)
    peeler.reduceToCore()
    for (u <- 0 until g.n if peeler.alive(u)) {
      var d = 0
      foreachNeighborIn(g, u, g.n)(w => if (peeler.alive(w)) d += 1)
      assert(peeler.deg(u) == d && d >= 3)
    }
  }

  test("remove cascades and records the removed batch in order") {
    val g = Fixtures.paperLike
    val peeler = new Peeler(g, g.n, 3)
    peeler.reduceToCore()
    // remove the bridge (lowest-weight core vertex, id 10)
    val r10 = g.rankOf(10L)
    val cvs = new IntArrayList()
    peeler.remove(r10, cvs)
    assert(cvs.length >= 1 && cvs(0) == r10)
    assert(!peeler.alive(r10))
    // the two-clique structure survives without the bridge
    assert(peeler.aliveCount == 10)
  }

  test("aliveCount tracks removals") {
    val g = LocalGen.localRandom(40, 4.0, 7)
    val peeler = new Peeler(g, g.n, 2)
    peeler.reduceToCore()
    assert(peeler.aliveCount == (0 until g.n).count(peeler.alive))
  }

  test("cascading removal leaves a γ-core") {
    val g = LocalGen.localRandom(60, 6.0, 13)
    val peeler = new Peeler(g, g.n, 3)
    peeler.reduceToCore()
    var cursor = g.n - 1
    while (peeler.aliveCount > 0) {
      while (cursor >= 0 && !peeler.alive(cursor)) cursor -= 1
      peeler.remove(cursor, null)
      for (u <- 0 until g.n if peeler.alive(u)) assert(peeler.deg(u) >= 3)
    }
  }
}

/** γ_max, the test helpers' component labels, and the peel's keynode cursor
  * and component walk.
  */
class GraphOpsSpec extends AnyFunSuite {

  test("gammaMax on a 4-clique is 3") {
    val g = WGraph((0L to 3L).map(i => i -> (10.0 - i)),
      for (i <- 0L to 3L; j <- i + 1 to 3L) yield (i, j))
    assert(Datasets.gammaMax(g) == 3)
  }

  test("gammaMax on the star is 1") {
    assert(Datasets.gammaMax(Fixtures.star) == 1)
  }

  test("gammaMax on an empty graph is 0") {
    assert(Datasets.gammaMax(WGraph(Seq.empty, Seq.empty)) == 0)
  }

  for (seed <- 1 to 5)
    test(s"coreness matches repeated γ-core membership (seed=$seed)") {
      val g = LocalGen.localRandom(40, 4.0, seed)
      // Naive's non-empty γ-cores, γ = 0, 1, …: a vertex's coreness is the
      // largest γ whose core holds it, and γ_max the largest γ with one
      val cores = Iterator.from(0).map(Naive.gammaCore(g, _, g.n)).takeWhile(_.nonEmpty).toIndexedSeq
      val coreness = (0 until g.n).map(u => cores.lastIndexWhere(_(u)))
      assert(Datasets.gammaMax(g) == cores.length - 1)
      for (gamma <- 1 until cores.length) {
        val members = gammaCore(g, gamma, g.n).toSet
        assert((0 until g.n).forall(u => members(u) == (coreness(u) >= gamma)), s"γ=$gamma")
      }
    }

  test("components labels the two cliques separately") {
    val g = Fixtures.paperLike
    // members: the two cliques only (drop bridge/pendant/extensions)
    val members = Array(0L, 1L, 2L, 3L, 5L, 6L, 7L, 8L).map(g.rankOf)
    val comp = components(g, members, g.n)
    val cliqueA = Set(0L, 1L, 2L, 3L).map(g.rankOf)
    val cliqueB = Set(5L, 6L, 7L, 8L).map(g.rankOf)
    assert(cliqueA.map(comp(_)).size == 1)
    assert(cliqueB.map(comp(_)).size == 1)
    assert(comp(g.rankOf(0L)) != comp(g.rankOf(5L)))
  }

  test("components marks non-members with -1") {
    val g = Fixtures.paperLike
    val comp = components(g, Array(0, 1), g.n)
    assert(comp(g.rankOf(11L)) == -1)
  }

  test("nextKeynode returns the largest alive rank, then -1 once none is alive") {
    val g = Fixtures.paperLike
    val peeler = new Peeler(g, g.n, 3)
    peeler.reduceToCore()
    val keys = new IntArrayList()
    var u = peeler.nextKeynode()
    while (u >= 0) {
      assert(u == (0 until g.n).filter(peeler.alive(_)).max)
      keys.add(u)
      peeler.remove(u, null)
      u = peeler.nextKeynode()
    }
    assert(peeler.aliveCount == 0)
    assert(keys.toArray.map(g.weights(_)).toSeq == Fixtures.paperLikeTop.map(_._1).reverse)
  }

  test("component collects the alive component of a vertex") {
    val g = Fixtures.paperLike
    val peeler = new Peeler(g, g.n, 3)
    peeler.reduceToCore()
    val out = new IntArrayList()
    peeler.component(g.rankOf(0L), out)
    assert(out.toArray.map(g.origId).toSet == (0L to 10L).toSet) // the pendant 11 is peeled
    peeler.remove(g.rankOf(10L), null) // the bridge: the cliques fall apart
    peeler.component(g.rankOf(0L), out)
    assert(out.toArray.map(g.origId).toSet == (0L to 4L).toSet)
  }
}
