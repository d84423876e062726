package repro.spark

import repro.core.{Community, CommunityIndex, CountIC, LocalSearch, SearchStats}
import repro.graph.WGraph

/** Distributed LocalSearch: the paper's Alg. 1 with Spark as the graph
  * substrate (the "iterative local expansion" architecture of DESIGN.md §2).
  *
  * The driver never materialises more than the current prefix. Each round
  * runs one Spark job that returns only the edges the prefix gained since
  * the previous round (a binary-searched slice of each partition of the
  * [[SparkGraphStore]]), appends them to the edges already held, builds the
  * prefix with the driver-resident ids and weights, runs the linear-time
  * CountIC peel locally, and grows the prefix by δ until k communities
  * exist. The δ-growth step is answered from the driver-resident per-rank
  * histogram (constant per-vertex memory, per the semi-external model)
  * without a cluster round-trip.
  *
  * Each round's job carries the description
  * `DistLocalSearch k=… γ=… round i p=…`; the caller's job group and
  * description are left in place.
  */
object DistLocalSearch {

  /** Top-k influential γ-communities in decreasing influence order. */
  def topK(store: SparkGraphStore, k: Int, gamma: Int,
           delta: Double = 2.0): (Seq[Community], SearchStats) = {
    val step = store.deltaStep(delta)
    val sc = store.spark.sparkContext
    val callerDescription = sc.getLocalProperty("spark.job.description")
    var fetched = 0
    var edges = Array.emptyLongArray
    var rounds = 0
    var prefix: WGraph = null
    val (res, stats) = try LocalSearch.search(store, k, gamma, step) { p =>
      rounds += 1
      sc.setJobDescription(s"DistLocalSearch k=$k γ=$gamma round $rounds p=$p")
      edges ++= store.fetchEdges(fetched, p)
      fetched = p
      prefix = store.prefixGraph(p, edges)
      CountIC.run(prefix, p, gamma)
    }(_.count) finally sc.setJobDescription(callerDescription)
    (CommunityIndex.topK(prefix, res, stats.finalPrefix, k), stats)
  }
}
