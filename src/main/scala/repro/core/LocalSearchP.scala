package repro.core

import repro.graph.WGraph

/** Algorithm 4: LocalSearch-P, the progressive variant.
  *
  * Produces influential γ-communities in strictly decreasing influence order
  * without a k parameter; the caller stops consuming whenever it has seen
  * enough. It takes [[LocalSearch.rounds]] from the prefix γ + 1; round i runs
  * ConstructCVS (CountIC with `stopBeforeRank = p_{i-1}`) on the prefix `p_i`,
  * so only keynodes *new* to this round are peeled. EnumIC-P reuses one
  * [[CommunityIndex]] across rounds and links a keynode only when the
  * iterator reaches it, so the linked keys are always a prefix of the
  * decreasing-weight order; its persistent disjoint-set lets a new low-weight
  * community link previously reported ones as children without recomputation.
  */
object LocalSearchP {

  /** One progressively reported community, over a key the iterator linked or
    * with its NC group. `materialise()` builds the member list on demand (a
    * linked key's by merging its materialised children's sorted members, so
    * reported order is cheapest); `size` is read without copying, matching
    * the paper's link-not-copy reporting.
    */
  final class Reported private[LocalSearchP] (private[core] val index: CommunityIndex, val keyRank: Int,
                                              ncGroup: Option[Array[Int]]) {
    def influence: Double = index.g.weights(keyRank)
    def keyId: Long = index.g.origId(keyRank)
    def size: Int = if (ncGroup.isEmpty) index.communitySize(keyRank) else ncGroup.get.length
    def materialise(): Community =
      if (ncGroup.isEmpty) index.community(keyRank) else Community.of(index.g, keyRank, ncGroup.get)
  }

  /** Progressive iterator over all influential γ-communities of `g`.
    *
    * @param ncOnly report only non-containment communities (each being its
    *               keynode's group), for §5.1 queries; nothing is linked.
    */
  def iterator(g: WGraph, gamma: Int, delta: Double = 2.0,
               ncOnly: Boolean = false): Iterator[Reported] = new Iterator[Reported] {
    LocalSearch.requireArgs(1, gamma) // no k: the caller stops consuming
    private val index = new CommunityIndex(g)
    private val rounds = LocalSearch.rounds(g, 1L + gamma, g.deltaStep(delta)) // τ1: one community needs γ+1 vertices
    private var round: Round = null
    private var res: CvsResult = null
    private var i = -1 // the next key of `res` to report; keys are stored in increasing weight order

    def hasNext: Boolean = {
      // Skip the keys NC mode does not report; past the last key, count the next round.
      while (if (i >= 0) ncOnly && !res.nc(i) else rounds.hasNext)
        if (i >= 0) i -= 1
        else {
          round = rounds.next()
          res = CountIC.run(round.graph, round.p, gamma, stopBeforeRank = round.from, trackNc = ncOnly)
          i = res.count - 1
        }
      i >= 0
    }

    def next(): Reported = {
      if (!hasNext) throw new NoSuchElementException("no more communities")
      val j = i
      i -= 1
      if (ncOnly) new Reported(index, res.keys(j), Some(res.group(j)))
      else { index.link(res, j, round.p); new Reported(index, res.keys(j), None) }
    }
  }

  /** Convenience: consume the iterator for the first k communities —
    * functionally equivalent to LocalSearch.topK (used by benches/tests).
    */
  def topK(g: WGraph, k: Int, gamma: Int, delta: Double = 2.0,
           ncOnly: Boolean = false): Seq[Community] = {
    LocalSearch.requireArgs(k, gamma)
    val it = iterator(g, gamma, delta, ncOnly)
    val out = Vector.newBuilder[Community]
    var found = 0
    while (found < k && it.hasNext) { out += it.next().materialise(); found += 1 }
    out.result()
  }
}
