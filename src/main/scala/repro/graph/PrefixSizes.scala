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
