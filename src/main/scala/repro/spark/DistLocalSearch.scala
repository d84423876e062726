package repro.spark

import repro.core.{Community, LocalSearch, SearchStats}

/** Distributed LocalSearch: the paper's Alg. 1 with Spark as the graph
  * substrate (the "iterative local expansion" architecture of DESIGN.md §2).
  *
  * It runs LocalSearch's loop over the [[SparkGraphStore]], as LocalSearch-SE
  * does over its edge store: each round one Spark job returns only the edges
  * the prefix gained (a binary-searched slice of each partition), and the
  * driver builds the prefix from the edges held so far with its ids and
  * weights and runs CountIC locally. The δ-growth step is answered from the
  * driver-resident per-rank histogram without a cluster round-trip. Each
  * round's job carries the description `DistLocalSearch k=… γ=… round i p=…`;
  * the caller's job group and description are left in place.
  */
object DistLocalSearch {

  /** Top-k influential γ-communities in decreasing influence order. */
  def topK(store: SparkGraphStore, k: Int, gamma: Int,
           delta: Double = 2.0): (Seq[Community], SearchStats) = {
    val sc = store.spark.sparkContext
    val callerDescription = sc.getLocalProperty("spark.job.description")
    try LocalSearch.topKOf(store, k, gamma, store.deltaStep(delta), (round, p) =>
      sc.setJobDescription(s"DistLocalSearch k=$k γ=$gamma round $round p=$p"))
    finally sc.setJobDescription(callerDescription)
  }
}
