package repro.gen

import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}
import repro.spark.{PageRankWeights, SparkGraphStore}

class GeneratorSpec extends SparkSpec {

  import spark.implicits._

  test("plantedCommunities is deterministic") {
    val a = GraphGen.plantedCommunities(spark, 5, 20, 4, 30, 3L).count()
    val b = GraphGen.plantedCommunities(spark, 5, 20, 4, 30, 3L).count()
    assert(a == b)
  }

  test("plantedCommunities edges are simple [oracle]") {
    val e = GraphGen.plantedCommunities(spark, 6, 25, 4, 40, 5L)
    val dup = e.groupBy("src", "dst").count().filter($"count" > 1)
      .agg(count(lit(1)).as("dups"))
    Oracle.assertEquivalent(dup,
      """SELECT count(*) AS dups FROM (
        |  SELECT src, dst, count(*) AS c FROM edges GROUP BY src, dst HAVING count(*) > 1
        |)""".stripMargin,
      "edges" -> e)
    assert(e.filter($"src" === $"dst").isEmpty)
  }

  test("planted communities contain dense cores (influential communities exist)") {
    val e = GraphGen.plantedCommunities(spark, 10, 40, 6, 100, 7L)
    val w = PageRankWeights.compute(spark, e)
    val g = SparkGraphStore.build(spark, e, w).toLocal
    val (top, _) = repro.core.LocalSearch.topK(g, 3, 5)
    assert(top.length == 3)
    // planted blocks are small and dense: the top community should be a
    // fraction of the graph, not the whole graph
    assert(top.head.members.length < g.n / 2)
  }

  /** Edge count and a wrapping sum of per-edge hashes: the same for every
    * order of one edge set, and (almost surely) different for another set.
    */
  private def fingerprint(edges: Seq[(Long, Long)]): (Int, Long) =
    (edges.length, edges.map { case (a, b) =>
      val h = math.min(a, b) * 0x9E3779B97F4A7C15L ^ (math.max(a, b) + 0x632BE59BD9B4E019L)
      h ^ (h >>> 29)
    }.sum)

  // Pins the graphs themselves: the determinism tests compare two runs of the
  // same code, so they would miss a change in the graph it generates.
  test("the block generators keep their graphs") {
    val planted = GraphGen.plantedCommunities(spark, 60, 90, 6, 700, 7L).as[(Long, Long)].collect().toSeq
    val g = GraphGen.weightBandedBlocks(40, 24, 7, 15, 13L)
    val bands = for (u <- 0 until g.n; v <- Fixtures.hiRow(g, u)) yield (g.origId(u), g.origId(v))
    assert(fingerprint(planted) == (5158, 4139185629673567519L))
    assert(fingerprint(bands) == (5474, -6292506138021296236L))
  }

  test("localRandom determinism") {
    val a = LocalGen.localRandom(50, 4.0, 1)
    val b = LocalGen.localRandom(50, 4.0, 1)
    assert(a.m == b.m && a.weights.toSeq == b.weights.toSeq)
  }

  test("localPowerLaw produces a connected-ish skewed graph") {
    val g = LocalGen.localPowerLaw(200, 4, 2)
    val degs = (0 until g.n).map(g.degree)
    assert(degs.max > 3 * (degs.sum.toDouble / g.n))
  }

  test("rmat respects the vertex-id bound") {
    val e = GraphGen.rmat(spark, 7, 3.0, 9L)
    assert(e.filter($"src" >= 128 || $"dst" >= 128 || $"src" < 0).isEmpty)
  }
}

class WeightBandedBlocksSpec extends org.scalatest.funsuite.AnyFunSuite {

  private val g = GraphGen.weightBandedBlocks(nBlocks = 20, blockSize = 24,
    intraDeg = 7, interTotal = 8, seed = 13L)

  test("weightBandedBlocks is deterministic") {
    val h = GraphGen.weightBandedBlocks(20, 24, 7, 8, 13L)
    assert(g.m == h.m && g.weights.toSeq == h.weights.toSeq)
  }

  test("blocks occupy disjoint descending weight bands") {
    // rank order should visit blocks in id order (block 0 = highest band)
    val blockOfRank = (0 until g.n).map(r => g.origId(r) / 24)
    assert(blockOfRank.toSeq == blockOfRank.sorted.toSeq)
  }

  test("weight-banded blocks yield many non-containment communities") {
    val res = repro.core.CountIC.run(g, g.n, 6, trackNc = true)
    assert(res.ncCount >= 10, s"ncCount=${res.ncCount}")
  }

  test("NC local search on bands terminates on a small prefix") {
    val (_, stats) = repro.core.LocalSearch.topKNonContainment(g, 3, 6)
    assert(stats.accessedSize < g.size)
  }
}
