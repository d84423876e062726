package repro.baseline

import repro.core.{Community, LocalSearch}
import repro.graph.{PrefixEdges, WGraph}

/** Semi-external machinery for Eval-VI (disk-resident edges).
  *
  * The paper's Remark (§3.1) assumes edges sorted on disk in decreasing *edge
  * weight* (weight of an edge = the minimum weight of its endpoints, i.e.
  * ascending maximum rank) so that prefix subgraphs load sequentially, while
  * main memory holds constant per-vertex information. [[EdgeStore]] realises
  * that layout in-process, as one ascending array of [[WGraph.pack]]ed edges
  * with explicit I/O accounting, which is what the Eval-VI comparison
  * measures (our container has no spinning disk to time).
  */
final class EdgeStore private (packed: Array[Long], protected val weights: Array[Double],
                               protected val origId: Array[Long], hiOff: Array[Int]) extends PrefixEdges {

  /** Edges streamed out of the store so far (the I/O metric). */
  var edgesRead: Long = 0L

  def n: Int = weights.length
  def prefixSize(p: Int): Long = p.toLong + hiOff(p)
  def totalEdges: Int = packed.length

  /** Read edges `[from, until)` in storage (decreasing weight) order. */
  def read(from: Int, until: Int): Array[Long] = {
    edgesRead += (until - from)
    java.util.Arrays.copyOfRange(packed, from, until)
  }

  def fetch(fromRank: Int, untilRank: Int): Array[Long] =
    read(prefixEdges(fromRank).toInt, prefixEdges(untilRank).toInt)
}

object EdgeStore {
  /** Sort the edges of `g` by decreasing edge weight (ascending max rank). */
  def fromGraph(g: WGraph): EdgeStore = {
    val packed = new Array[Long](g.m.toInt)
    // g.hi holds each edge once, in its max rank's row; ranks ascend = weights descend.
    for (u <- 0 until g.n; i <- g.hiOff(u) until g.hiOff(u + 1)) packed(i) = WGraph.pack(u, g.hi(i))
    new EdgeStore(packed, g.weights, g.origId, g.hiOff)
  }
}

/** Result of a semi-external run: answer plus I/O and memory accounting. */
final case class SeResult(communities: Seq[Community], edgesRead: Long,
                          peakResidentEdges: Long)

/** LocalSearch-SE: LocalSearch with each prefix's new edges loaded
  * sequentially from the [[EdgeStore]]. Total I/O equals the edges of the
  * final prefix; resident memory peaks at the final prefix size — orders of
  * magnitude below the OnlineAll-SE budget.
  */
object LocalSearchSE {

  def topK(g: WGraph, store: EdgeStore, k: Int, gamma: Int,
           delta: Double = 2.0): SeResult = {
    val (communities, stats) = LocalSearch.topKOf(store, k, gamma, store.deltaStep(delta))
    SeResult(communities, store.edgesRead, g.prefixEdges(stats.finalPrefix))
  }
}

/** OnlineAll-SE [Li et al., VLDBJ'17]: the semi-external OnlineAll. It scans
  * the *entire* sorted edge file in memory-budget-sized chunks (loading as
  * many edges as fit, computing, evicting finalised edges) and computes all
  * communities. We simulate it as the chunked sequential scan (total I/O =
  * |E|, resident peak = budget) followed by the global OnlineAll peel; this
  * preserves the measured quantities of Figs. 16–17 — total time dominated by
  * whole-graph processing, and resident memory pinned at the budget — without
  * re-implementing [27]'s eviction bookkeeping (see DESIGN.md §4).
  */
object OnlineAllSE {

  def topK(g: WGraph, store: EdgeStore, k: Int, gamma: Int,
           budgetEdges: Int): SeResult = {
    LocalSearch.requireArgs(k, gamma)
    val m = store.totalEdges
    var pos = 0
    var read = 0L
    while (pos < m) {
      val until = math.min(m, pos + budgetEdges)
      read += store.read(pos, until).length // consume the chunk
      pos = until
    }
    require(read == m, s"scanned $read of $m edges")
    val (communities, _) = OnlineAll.topK(g, k, gamma)
    SeResult(communities, store.edgesRead, math.min(budgetEdges.toLong, m.toLong))
  }
}
