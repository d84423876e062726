package repro.core

import repro.graph.WGraph

import scala.collection.mutable

/** Algorithm 4: LocalSearch-P, the progressive variant.
  *
  * Produces influential γ-communities in strictly decreasing influence order
  * without a k parameter; the caller stops consuming whenever it has seen
  * enough. Each round i runs ConstructCVS (CountIC with a stop threshold
  * `stopBeforeRank = p_{i-1}`) on the prefix `p_i`, so only keynodes *new* to
  * this round are peeled, and EnumIC-P reuses one [[CommunityIndex]] across
  * rounds — its persistent disjoint-set lets a new low-weight community link
  * previously reported communities as children without recomputation.
  */
object LocalSearchP {

  /** One progressively reported community. `materialise()` builds the full
    * member list on demand, merging the sorted members of its already
    * materialised children (so materialising in reported order is cheapest;
    * in any order the index keeps at most the prefix's ids for later merges);
    * `size` is read from the forest without copying, matching the paper's
    * link-not-copy reporting.
    */
  final class Reported(index: CommunityIndex, val keyRank: Int, val nonContainment: Boolean,
                       private val ncOnly: Boolean) {
    def influence: Double = index.g.weights(keyRank)
    def keyId: Long = index.g.origId(keyRank)
    def size: Int = index.communitySize(keyRank)
    def materialise(): Community =
      if (ncOnly) index.ncCommunity(keyRank) else index.community(keyRank)
  }

  /** Progressive iterator over all influential γ-communities of `g`.
    *
    * @param ncOnly report only non-containment communities (each being its
    *               keynode's group), for §5.1 queries.
    */
  def iterator(g: WGraph, gamma: Int, delta: Double = 2.0,
               ncOnly: Boolean = false): Iterator[Reported] = new Iterator[Reported] {
    LocalSearch.requireArgs(1, gamma) // no k: the caller stops consuming
    private val step = g.deltaStep(delta)
    private val index = new CommunityIndex(g)
    private var p = math.min(g.n, 1 + gamma) // τ1: one community needs γ+1 vertices
    private var prevP = 0
    private var exhausted = g.n == 0
    private val pending = new mutable.Queue[Reported]

    private def refill(): Unit = {
      while (pending.isEmpty && !exhausted) {
        val res = CountIC.run(g, p, gamma, stopBeforeRank = prevP, trackNc = ncOnly)
        index.process(res, p, 0)
        // Keys are stored in increasing weight order; report decreasing.
        var i = res.keys.length - 1
        while (i >= 0) {
          if (!ncOnly || res.nc(i))
            pending.enqueue(new Reported(index, res.keys(i), ncOnly && res.nc(i), ncOnly))
          i -= 1
        }
        if (p == g.n) exhausted = true
        else {
          prevP = p
          p = step(p)
        }
      }
    }

    override def hasNext: Boolean = { refill(); pending.nonEmpty }
    override def next(): Reported = { refill(); pending.dequeue() }
  }

  /** Convenience: consume the iterator for the first k communities —
    * functionally equivalent to LocalSearch.topK (used by benches/tests).
    */
  def topK(g: WGraph, k: Int, gamma: Int, delta: Double = 2.0,
           ncOnly: Boolean = false): Seq[Community] = {
    LocalSearch.requireArgs(k, gamma)
    iterator(g, gamma, delta, ncOnly).take(k).map(_.materialise()).toSeq
  }
}
