package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.Fixtures.{hiRow, loRow}
import repro.gen.LocalGen

class WGraphSpec extends AnyFunSuite {

  private val g = Fixtures.paperLike

  test("ranks are ordered by decreasing weight") {
    assert((1 until g.n).forall(r => g.weights(r - 1) >= g.weights(r)))
  }

  test("rank 0 is the highest-weight vertex (id 0, weight 20)") {
    assert(g.origId(0) == 0L && g.weights(0) == 20.0)
  }

  test("adjHi holds only higher-weight (smaller-rank) neighbours") {
    assert((0 until g.n).forall(u => hiRow(g, u).forall(_ < u)))
  }

  test("adjLo holds only lower-weight (larger-rank) neighbours") {
    assert((0 until g.n).forall(u => loRow(g, u).forall(_ > u)))
  }

  private def strictlyAscending(a: Array[Int]) = (1 until a.length).forall(i => a(i - 1) < a(i))

  test("adjacency lists are sorted ascending") {
    assert((0 until g.n).forall(u => strictlyAscending(hiRow(g, u)) && strictlyAscending(loRow(g, u))))
  }

  test("every edge appears in exactly one adjHi and one adjLo") {
    val fromHi = (0 until g.n).flatMap(u => hiRow(g, u).map(v => (v, u))).toSet
    val fromLo = (0 until g.n).flatMap(u => loRow(g, u).map(v => (u, v))).toSet
    assert(fromHi == fromLo)
  }

  test("m counts each undirected edge once") {
    assert(g.m == 6 + 6 + 3 + 3 + 4 + 1) // two 4-cliques + pendants + bridge
  }

  test("size = |V| + |E|") {
    assert(g.size == g.n + g.m)
  }

  test("self-loops are dropped and parallel edges deduped") {
    val h = WGraph(Seq(1L -> 2.0, 2L -> 1.0), Seq((1L, 2L), (2L, 1L), (1L, 1L)))
    assert(h.m == 1)
  }

  test("weight ties are broken by ascending id") {
    val h = WGraph(Seq(5L -> 1.0, 3L -> 1.0, 4L -> 1.0), Nil)
    assert(h.origId.toSeq == Seq(3L, 4L, 5L))
  }

  test("unknown edge endpoint is rejected") {
    intercept[IllegalArgumentException] {
      WGraph(Seq(1L -> 1.0), Seq((1L, 99L)))
    }
  }

  test("prefixSize is strictly increasing") {
    assert((1 to g.n).forall(p => g.prefixSize(p) > g.prefixSize(p - 1)))
  }

  test("prefixSize(p) counts prefix vertices plus internal edges") {
    for (p <- 0 to g.n) {
      val inPrefix = (0 until p).toSet
      val edges = (0 until p).map(u => hiRow(g, u).count(inPrefix)).sum
      assert(g.prefixSize(p) == p + edges)
    }
  }

  test("growTo returns the smallest prefix reaching the target") {
    for (target <- 0L to g.size) {
      val p = g.growTo(target)
      assert(g.prefixSize(p) >= target)
      assert(p == 0 || g.prefixSize(p - 1) < target)
    }
  }

  test("degIn matches a direct count, for every prefix") {
    for (p <- 1 to g.n; u <- 0 until p) {
      val expected = (hiRow(g, u) ++ loRow(g, u)).count(_ < p)
      assert(g.degIn(u, p) == expected, s"degIn($u, $p)")
    }
  }

  test("foreachNeighborIn visits exactly the in-prefix neighbours") {
    for (p <- 1 to g.n; u <- 0 until p) {
      val buf = scala.collection.mutable.ArrayBuffer.empty[Int]
      Fixtures.foreachNeighborIn(g, u, p)(buf += _)
      val expected = (hiRow(g, u) ++ loRow(g, u)).filter(_ < p).toSet
      assert(buf.toSet == expected && buf.size == expected.size)
    }
  }

  test("rankOf inverts origId") {
    assert((0 until g.n).forall(r => g.rankOf(g.origId(r)) == r))
  }

  test("fromPacked accepts any orientation, any order and repeated edges") {
    val w = Array(4.0, 3.0, 2.0, 1.0)
    val ids = Array(0L, 1L, 2L, 3L)
    val edges = Seq((0, 1), (2, 1), (3, 0), (2, 0), (3, 1))
    val a = WGraph.fromPacked(w, ids, edges.map { case (u, v) => WGraph.pack(u, v) }.toArray, edges.length)
    val flipped = edges.reverse.map { case (u, v) => WGraph.pack(v, u) } :+ WGraph.pack(1, 2) :+ WGraph.pack(0, 3)
    val b = WGraph.fromPacked(w, ids, flipped.toArray, flipped.length)
    assert(a.m == 5 && b.m == 5)
    for (h <- Seq(a, b)) {
      assert((0 until h.n).map(hiRow(h, _).toSeq) == Seq(Nil, Seq(0), Seq(0, 1), Seq(0, 1)))
      assert((0 until h.n).map(loRow(h, _).toSeq) == Seq(Seq(1, 2, 3), Seq(2, 3), Nil, Nil))
    }
  }

  test("fromPacked rejects a self-loop") {
    val err = intercept[IllegalArgumentException](
      WGraph.fromPacked(Array(3.0, 2.0, 1.0), Array(0L, 1L, 2L), Array(WGraph.pack(2, 2)), 1))
    assert(err.getMessage.contains("packed edge (2,2) needs ranks 0 <= minRank < maxRank < 3"), err.getMessage)
  }

  test("fromPacked rejects a rank at or above n") {
    val err = intercept[IllegalArgumentException](
      WGraph.fromPacked(Array(3.0, 2.0, 1.0), Array(0L, 1L, 2L), Array(WGraph.pack(0, 1), WGraph.pack(3, 1)), 2))
    assert(err.getMessage.contains("packed edge (3,1) needs ranks 0 <= minRank < maxRank < 3"), err.getMessage)
  }

  test("fromPacked rejects a negative rank") {
    val err = intercept[IllegalArgumentException](
      WGraph.fromPacked(Array(3.0, 2.0, 1.0), Array(0L, 1L, 2L), Array(WGraph.pack(2, -1)), 1))
    assert(err.getMessage.contains("needs ranks 0 <= minRank < maxRank < 3"), err.getMessage)
  }

  test("hiOff(p) counts the prefix's edges, and lo is the transpose of hi") {
    for (h <- Seq(g, LocalGen.localRandom(60, 4.0, 2))) {
      assert(h.hiOff.length == h.n + 1 && h.loOff.length == h.n + 1 && h.lo.length == h.hi.length)
      // N<(v) ∩ [0, p), summed over v, counts the prefix's edges from lo alone.
      assert((0 to h.n).forall(p => h.hiOff(p) == h.prefixEdges(p) &&
        h.hiOff(p) == (0 until h.n).map(v => loRow(h, v).count(_ < p)).sum))
      val fromHi = (0 until h.n).flatMap(u => hiRow(h, u).map(v => (v, u)))
      val fromLo = (0 until h.n).flatMap(v => loRow(h, v).map(u => (v, u)))
      assert(fromLo == fromHi.sorted)
    }
  }

  test("random graphs: degree sum equals 2m") {
    for (seed <- 1 to 5) {
      val h = LocalGen.localRandom(60, 4.0, seed)
      val degSum = (0 until h.n).map(h.degree).sum
      assert(degSum == 2 * h.m)
    }
  }

  test("random graphs: weights are distinct") {
    val h = LocalGen.localRandom(80, 3.0, 9)
    assert(h.weights.distinct.length == h.n)
  }

  test("an id-local 60,000-edge graph builds in under a second") {
    // Each vertex linked to its 3 predecessors: 3n − 6 edges.
    val n = 20002L
    val edges = for (v <- 1L until n; d <- 1L to 3L if v >= d) yield (v - d, v)
    val weights = (0L until n).map(v => v -> (n - v).toDouble)
    val t0 = System.nanoTime()
    val h = WGraph(weights, edges)
    val seconds = (System.nanoTime() - t0) / 1e9
    assert(h.m == 60000)
    assert(seconds < 1.0, s"built in $seconds s")
  }

  test("an id-local graph builds within 3x a random graph of the same size") {
    // Each vertex linked to its 3 predecessors: 3n − 6 = 200,000 edges.
    val n = 66668L
    val idLocal = for (v <- 1L until n; d <- 1L to 3L if v >= d) yield (v - d, v)
    val rnd = new scala.util.Random(3)
    val random = idLocal.map { _ => val a = rnd.nextLong(n); (a, (a + 1 + rnd.nextLong(n - 1)) % n) }
    val weights = (0L until n).map(v => v -> (n - v).toDouble)
    def seconds(edges: Seq[(Long, Long)]): Double = {
      val t0 = System.nanoTime()
      WGraph(weights, edges)
      (System.nanoTime() - t0) / 1e9
    }
    val runs = Seq.fill(3)((seconds(idLocal), seconds(random)))
    val (tLocal, tRandom) = (runs.map(_._1).min, runs.map(_._2).min)
    assert(tLocal <= 3 * tRandom, s"id-local $tLocal s, random $tRandom s")
  }

  test("duplicate vertex ids are rejected") {
    val err = intercept[IllegalArgumentException](
      WGraph(Seq(1L -> 1.0, 1L -> 2.0, 2L -> 3.0), Seq((1L, 2L))))
    assert(err.getMessage.contains("vertex id 1 appears twice in the weight table"), err.getMessage)
  }

  test("NaN weights are rejected") {
    val err = intercept[IllegalArgumentException](
      WGraph(Seq(1L -> 1.0, 2L -> Double.NaN), Seq((1L, 2L))))
    assert(err.getMessage.contains("vertex 2 has a NaN weight"), err.getMessage)
  }
}
