package repro.graph

/** A graph in the weight-rank layout seen only through the sizes of its
  * top-`p` prefixes `G≥τ`: all that the δ-growth of Alg. 1 needs to pick the
  * next prefix. Implemented by the local [[WGraph]] and by the Spark store,
  * which answers from a driver-resident histogram without touching the edges.
  */
trait PrefixSizes {

  /** Number of vertices. */
  def n: Int

  /** size (|V|+|E|) of the prefix subgraph on ranks `< p`; strictly
    * increasing in `p`, with `prefixSize(0) == 0`.
    */
  def prefixSize(p: Int): Long

  /** size(G) = |V| + |E|. */
  def size: Long = prefixSize(n)

  /** Number of edges inside the top-`p` prefix. */
  def prefixEdges(p: Int): Long = prefixSize(p) - p

  /** Smallest prefix length whose size is ≥ `target`, capped at n. */
  def growTo(target: Long): Int = {
    var lo = 0
    var hi = n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (prefixSize(mid) >= target) hi = mid else lo = mid + 1
    }
    lo
  }

  /** Line 4 of Alg. 1 as a step function: grow `G≥τ` until its size is at
    * least δ times the current one, by at least one vertex and at most to G.
    * δ is checked here, once, when the step is made.
    */
  def deltaStep(delta: Double): Int => Int = {
    require(delta > 1.0, "growth ratio must exceed 1")
    p => math.min(n, math.max(p + 1, growTo(math.ceil(delta * prefixSize(p).toDouble).toLong)))
  }
}

/** Prefix sizes plus the edges, [[WGraph.pack]]ed and read in the paper's
  * edge-weight order (§3.1 Remark), while memory holds ids and weights by
  * rank: the edge stores of LocalSearch-SE and DistLocalSearch.
  */
trait PrefixEdges extends PrefixSizes {
  protected def weights: Array[Double]
  protected def origId: Array[Long]

  /** The edges whose maxRank lies in `[fromRank, untilRank)`. */
  def fetch(fromRank: Int, untilRank: Int): Array[Long]

  /** The top-`p` prefix, given every edge with maxRank < p (in any order,
    * repeats allowed); sorts `edges` in place.
    */
  def prefixGraph(p: Int, edges: Array[Long]): WGraph =
    WGraph.fromPacked(java.util.Arrays.copyOf(weights, p), java.util.Arrays.copyOf(origId, p), edges, edges.length)
}
