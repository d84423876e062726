package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.graph.{PrefixEdges, RankTable, WGraph}

/** The graph data management system of the reproduction: the paper's
  * semi-external layout (§3.1 Remark) with Spark holding the edges.
  *
  * This realises the only interface LocalSearch requires of its substrate:
  * vertices retrievable in decreasing weight order together with their
  * higher-weight neighbourhoods. Ranks come from one [[RankTable]], as
  * [[WGraph.apply]]'s do. Per the semi-external assumption ("memory holds
  * constant information per vertex"), the driver keeps ids, weights and the
  * per-rank edge histogram in rank-indexed arrays. The edges stay in the
  * cluster as one sorted `Array[Long]` per partition, each entry packing
  * `maxRank << 32 | minRank`. `maxRank` — the rank of the lower-weight
  * endpoint — is the paper's edge-weight sort key, so the edges of the top-p
  * prefix `G≥τ` are the entries below `p << 32`, and the edges a prefix gains
  * when it grows from `p0` to `p` are one binary-searched slice per partition.
  *
  * The edge RDD is locally checkpointed: its lineage (the SQL plan of the
  * input and the packing closure, which holds O(n) id arrays) is cut when
  * the store is built, so each [[fetch]] job ships a task of a few KB rather
  * than one that grows with n. The price is Spark's for every local
  * checkpoint: the partitions live only in the executors' block stores, so
  * a lost executor loses the store, which must then be rebuilt.
  */
final class SparkGraphStore private (
    private[spark] val spark: SparkSession,
    /** Original id by rank; rank 0 = highest weight. */
    protected val origId: Array[Long],
    /** Weight by rank; non-increasing. */
    protected val weights: Array[Double],
    /** One ascending array of packed edges per partition; persisted and
      * locally checkpointed.
      */
    private[spark] val packed: RDD[Array[Long]],
    /** cumEdges(p) = number of edge rows with maxRank < p (length n+1). */
    val cumEdges: Array[Long],
) extends PrefixEdges {

  /** Number of vertices. */
  val n: Int = origId.length

  /** size (|V|+|E|) of the top-`p` prefix subgraph. */
  def prefixSize(p: Int): Long = p + cumEdges(p)

  /** The edges whose maxRank lies in `[fromRank, untilRank)`, fetched by one
    * Spark job.
    */
  def fetch(fromRank: Int, untilRank: Int): Array[Long] = {
    val lo = fromRank.toLong << 32
    val hi = untilRank.toLong << 32
    val slices = spark.sparkContext.runJob(packed, (it: Iterator[Array[Long]]) => {
      val a = it.next()
      java.util.Arrays.copyOfRange(a, SparkGraphStore.lowerBound(a, lo), SparkGraphStore.lowerBound(a, hi))
    })
    Array.concat(slices.toSeq: _*)
  }

  /** Pull the top-`p` prefix out of the cluster as a local [[WGraph]]. */
  def collectPrefix(p: Int): WGraph = prefixes()(p)

  /** The whole graph, local. */
  def toLocal: WGraph = collectPrefix(n)

  /** (id, weight, rank), built from the driver arrays on each call; not cached. */
  def vertices: DataFrame = {
    import spark.implicits._
    origId.indices.map(r => (origId(r), weights(r), r)).toDF("id", "weight", "rank")
  }

  /** (src, dst, srcRank, dstRank, maxRank) with src < dst, derived from the
    * packed edges on each call; not cached.
    */
  def edges: DataFrame = {
    import spark.implicits._
    val id = origId // a local, so the task closure does not capture the store
    packed.flatMap(_.iterator.map { e =>
      val hi = (e >>> 32).toInt
      val lo = e.toInt
      if (id(lo) < id(hi)) (id(lo), id(hi), lo, hi, hi) else (id(hi), id(lo), hi, lo, hi)
    }).toDF("src", "dst", "srcRank", "dstRank", "maxRank")
  }

  def unpersist(): Unit = packed.unpersist()
}

object SparkGraphStore {

  /** Build the store from an undirected edge list `(src, dst)` and a weight
    * table `(id, weight)`, ranked by one [[RankTable]] (so 0.0 ranks above
    * −0.0, and weight ties go to the smaller id). Rejects duplicate ids, NaN
    * weights, self-loops, and edges with an endpoint missing from
    * `weightsDf`. An edge listed more than once (in either direction) is kept
    * as given: `cumEdges` counts the rows, so prefix sizes and `SearchStats`
    * count each repeat, while every prefix graph holds the edge once.
    */
  def build(spark: SparkSession, edgesDf: DataFrame, weightsDf: DataFrame): SparkGraphStore = {
    val rows = weightsDf.select(col("id").cast("long"), col("weight").cast("double")).collect()
    val ranks = RankTable(rows.map(_.getLong(0)), rows.map(_.getDouble(1)))
    val n = ranks.ids.length
    // The table goes to the packing task, so a missing endpoint fails the
    // first job over the edges.
    val packing = edgesDf.select(col("src").cast("long"), col("dst").cast("long")).rdd
      .mapPartitions { it =>
        val b = Array.newBuilder[Long]
        it.foreach { r =>
          val (s, d) = (r.getLong(0), r.getLong(1))
          if (s == d) throw new IllegalArgumentException(s"edge ($s,$d) is a self-loop")
          b += ranks.pack(s, d)
        }
        val a = b.result()
        java.util.Arrays.sort(a)
        Iterator.single(a)
      }
    // A child of the packing RDD holds the arrays; once the first job below
    // has filled it, its lineage is cut, so the tasks of later jobs carry
    // neither the plan nor the packing closure.
    val packed = packing.map(identity).persist(StorageLevel.MEMORY_AND_DISK).localCheckpoint()

    // Per-partition (maxRank, count) runs, packed as maxRank << 32 | count.
    // The first job over the edges: it packs them, fills `packed` and cuts
    // its lineage.
    val runs = spark.sparkContext.runJob(packed, (it: Iterator[Array[Long]]) => {
      val a = it.next()
      val b = Array.newBuilder[Long]
      var i = 0
      while (i < a.length) {
        val r = a(i) >>> 32
        var j = i + 1
        while (j < a.length && (a(j) >>> 32) == r) j += 1
        b += (r << 32 | (j - i))
        i = j
      }
      b.result()
    })
    val cum = new Array[Long](n + 1)
    for (part <- runs; run <- part) cum((run >>> 32).toInt + 1) += run & 0xffffffffL
    var p = 1
    while (p <= n) { cum(p) += cum(p - 1); p += 1 }

    new SparkGraphStore(spark, ranks.ids, ranks.weights, packed, cum)
  }

  /** First index of the ascending array `a` whose entry is ≥ `key`. */
  private def lowerBound(a: Array[Long], key: Long): Int = {
    var lo = 0
    var hi = a.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < key) lo = mid + 1 else hi = mid
    }
    lo
  }
}
