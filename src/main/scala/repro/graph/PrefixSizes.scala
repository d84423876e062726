package repro.graph

/** A graph in the weight-rank layout seen through its top-`p` prefixes
  * `G≥τ`: their sizes, all that the δ-growth of Alg. 1 needs to pick the next
  * prefix, and the prefix graphs. Implemented by the local [[WGraph]] and by
  * the edge stores, whose sizes come from a histogram held in memory.
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

  /** One query's prefix graphs: `prefix(p)`, for non-decreasing `p`, has `G≥τ` as its top-`p` prefix. */
  def prefixes(): Int => WGraph

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

  /** Fetches only the edges each call's prefix gained and builds it from every edge held, each once. */
  def prefixes(): Int => WGraph = {
    var edges = Array.emptyLongArray
    var fetched = 0
    p => {
      edges ++= fetch(fetched, p)
      fetched = p
      WGraph.fromPacked(java.util.Arrays.copyOf(weights, p), java.util.Arrays.copyOf(origId, p), edges, edges.length)
    }
  }
}
