package repro.gen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.WGraph

import scala.collection.mutable
import scala.util.Random

/** Graph generators standing in for the paper's SNAP/LAW datasets (see
  * DESIGN.md §3 for the substitution rationale).
  *
  * `rmat` is a distributed Spark dataflow: one row per candidate edge, each
  * derived from a per-edge `SplittableRandom` stream so the output is
  * deterministic in (scale, edgeFactor, seed) independent of scheduling.
  * RMAT's recursive quadrant bias produces power-law degrees and an
  * interconnected high-degree core — the "rich club" that makes PageRank-top
  * prefixes dense on real social graphs.
  */
object GraphGen {

  /** RMAT edge generator. Returns a simple undirected edge list as a
    * DataFrame `(src, dst)` with `src < dst`, no self-loops, deduplicated.
    *
    * @param scale      n = 2^scale vertices (ids in [0, 2^scale))
    * @param edgeFactor candidate edges per vertex (dedup shrinks the result)
    */
  def rmat(spark: SparkSession, scale: Int, edgeFactor: Double, seed: Long,
           a: Double = 0.57, b: Double = 0.19, c: Double = 0.19): DataFrame = {
    import spark.implicits._
    val n = 1L << scale
    val mTarget = math.max(1L, (n * edgeFactor).toLong)
    val raw = spark.range(0, mTarget, 1, numPartitions = 16).map { i =>
      val rng = new java.util.SplittableRandom(seed * 0x9E3779B97F4A7C15L + i)
      var src = 0L
      var dst = 0L
      var bit = scale - 1
      while (bit >= 0) {
        val r = rng.nextDouble()
        if (r < a) { /* quadrant (0,0) */ }
        else if (r < a + b) dst |= 1L << bit
        else if (r < a + b + c) src |= 1L << bit
        else { src |= 1L << bit; dst |= 1L << bit }
        bit -= 1
      }
      (src, dst)
    }.toDF("s", "d")
    raw
      .where($"s" =!= $"d")
      .select(least($"s", $"d").as("src"), greatest($"s", $"d").as("dst"))
      .distinct()
  }

  /** Planted-community graph for the DBLP case study (Eval-IX): power-law
    * community sizes, dense intra-community blocks (each vertex wired to
    * `intraDeg` random peers in its community) and sparse random inter
    * edges. Generated on the driver (case-study scale) and returned as a
    * `(src, dst)` DataFrame so it flows through the same Spark store.
    */
  def plantedCommunities(spark: SparkSession, nCommunities: Int, baseSize: Int,
                         intraDeg: Int, interEdges: Int, seed: Long): DataFrame = {
    import spark.implicits._
    val rnd = new Random(seed)
    val sizes = (0 until nCommunities).map(i =>
      math.max(4, (baseSize / math.pow(i + 1, 0.6)).toInt))
    val starts = sizes.scanLeft(0L)(_ + _)
    val n = starts.last
    val edges = mutable.LinkedHashSet.empty[(Long, Long)]
    def put(x: Long, y: Long): Unit =
      if (x != y) edges += ((math.min(x, y), math.max(x, y)))
    for (ci <- 0 until nCommunities) {
      val s = starts(ci); val sz = sizes(ci)
      for (v <- 0L until sz) {
        // ring for connectivity + random chords for density
        put(s + v, s + (v + 1) % sz)
        for (_ <- 0 until intraDeg) put(s + v, s + rnd.nextInt(sz))
      }
    }
    for (_ <- 0 until interEdges)
      put(rnd.nextLong(n), rnd.nextLong(n))
    edges.toSeq.toDF("src", "dst")
  }

  /** Weight-banded planted blocks, for the non-containment experiment
    * (Eval-VII). Blocks are dense (ring + `intraDeg` random chords) and each
    * block's vertex weights occupy a *disjoint band* (block 0 highest), so
    * the γ-core of a weight-prefix splits into one component per fully
    * included block — every block contributes a non-containment community,
    * as distinct dense regions do in the paper's real graphs (RMAT + global
    * PageRank yields a single nested chain instead; see EXPERIMENTS.md).
    */
  def weightBandedBlocks(nBlocks: Int, blockSize: Int, intraDeg: Int,
                         interTotal: Int, seed: Long): WGraph = {
    val rnd = new Random(seed)
    val n = nBlocks * blockSize
    val edges = mutable.LinkedHashSet.empty[(Long, Long)]
    def put(x: Long, y: Long): Unit =
      if (x != y) edges += ((math.min(x, y), math.max(x, y)))
    for (b <- 0 until nBlocks; v <- 0 until blockSize) {
      val id = b * blockSize + v
      put(id, b * blockSize + (v + 1) % blockSize)
      for (_ <- 0 until intraDeg) put(id, b * blockSize + rnd.nextInt(blockSize))
    }
    // Sparse *total* inter wiring: the block-level graph must stay mostly
    // disconnected, otherwise the peel's component tree never branches and
    // only one NC community survives (one chain of nested communities).
    for (_ <- 0 until interTotal) put(rnd.nextLong(n), rnd.nextLong(n))
    // band weights: block b spans (nBlocks − b − 1, nBlocks − b], jittered
    val weights = (0L until n.toLong).map { id =>
      val b = (id / blockSize).toInt
      id -> ((nBlocks - b).toDouble - rnd.nextDouble() * 0.98)
    }
    WGraph(weights, edges)
  }
}
