package repro.core

import repro.graph.WGraph
import repro.util.{DisjointSet, IntArrayList}

import scala.collection.mutable

/** A materialised influential γ-community. `members` are original vertex ids,
  * sorted ascending; `influence` is the weight of the keynode.
  */
final case class Community(keyId: Long, influence: Double, members: Array[Long]) {
  override def toString: String =
    s"Community(key=$keyId, f=$influence, |V|=${members.length})"
}

object Community {

  /** The community of keynode `key` whose members have the ranks `ranks`. */
  def of(g: WGraph, key: Int, ranks: Array[Int]): Community = {
    val members = ranks.map(g.origId)
    java.util.Arrays.sort(members)
    Community(g.origId(key), g.weights(key), members)
  }
}

/** Algorithm 3 (EnumIC) and its progressive variant EnumIC-P.
  *
  * Keynodes are processed in decreasing weight order. For each keynode u the
  * group `gp(u)` is placed into a fresh disjoint-set rooted at u; every
  * neighbour already assigned to some other set identifies a *child*
  * community `IC(u') ⊂ IC(u)`, which is linked (its set is re-rooted under u)
  * rather than copied — so one pass is O(size(prefix)) regardless of the
  * total (overlapping) output size.
  *
  * The same instance is reused across rounds of LocalSearch-P: the
  * disjoint-set is global and lazily assigned exactly as the paper's
  * `v2key`, so a later (lower-weight) round can absorb communities reported
  * by earlier rounds as children.
  */
final class CommunityIndex(val g: WGraph) {

  private val ds = new DisjointSet(g.n)
  /** keynode rank → group gp(u) (ranks, removal order). */
  private val groups = new mutable.HashMap[Int, Array[Int]]
  /** keynode rank → child keynode ranks. */
  private val childKeys = new mutable.HashMap[Int, Array[Int]]
  private val rankMemo = new mutable.HashMap[Int, Array[Int]]
  private val sizeMemo = new mutable.HashMap[Int, Int]

  /** True if `key` has been processed (its community is materialisable). */
  def contains(key: Int): Boolean = groups.contains(key)

  /** Process keys `[fromIdx, keys.length)` of one CvsResult in decreasing
    * weight order. `p` is the prefix the CvsResult was computed over (bounds
    * the neighbour scans). For plain EnumIC on the last k keys pass
    * `fromIdx = keys.length - k`; LocalSearch-P passes 0 for each segment.
    */
  def process(res: CvsResult, p: Int, fromIdx: Int = 0): Unit = {
    var i = res.keys.length - 1
    while (i >= fromIdx) {
      val u = res.keys(i)
      val gp = res.group(i)
      ds.makeRoot(u)
      var j = 0
      while (j < gp.length) {
        if (gp(j) != u) ds.assign(gp(j), u)
        j += 1
      }
      val ch = new IntArrayList()
      j = 0
      while (j < gp.length) {
        val v = gp(j)
        g.foreachNeighborIn(v, p) { w =>
          if (ds.assigned(w)) {
            // Roots are always keynode ranks, so find(w) names the smallest
            // (so far) keynode whose community contains w — the paper's
            // v2key — and re-rooting under u is Union(w, u).
            val r = ds.find(w)
            if (r != u) { ch.add(r); ds.unionInto(r, u) }
          }
        }
        j += 1
      }
      groups(u) = gp
      childKeys(u) = ch.toArray
      i -= 1
    }
  }

  /** Member ranks of IC(key); children are disjoint so concatenation is
    * duplicate-free. Memoised — shared sub-communities are materialised once.
    */
  def memberRanks(key: Int): Array[Int] = rankMemo.getOrElseUpdate(key, {
    val gp = groups(key)
    val ch = childKeys(key)
    var total = gp.length
    val parts = ch.map(memberRanks)
    parts.foreach(total += _.length)
    val out = new Array[Int](total)
    System.arraycopy(gp, 0, out, 0, gp.length)
    var off = gp.length
    parts.foreach { part =>
      System.arraycopy(part, 0, out, off, part.length)
      off += part.length
    }
    out
  })

  /** |IC(key)| without materialising the member list. */
  def communitySize(key: Int): Int = sizeMemo.getOrElseUpdate(key,
    groups(key).length + childKeys(key).map(communitySize).sum)

  /** Materialise IC(key) with original ids. */
  def community(key: Int): Community = Community.of(g, key, memberRanks(key))

  /** The §5.1 non-containment community of an NC keynode: exactly gp(u). */
  def ncCommunity(key: Int): Community = Community.of(g, key, groups(key))
}

object CommunityIndex {

  /** EnumIC on the last `k` keynodes of `res`, counted over the top-`p`
    * prefix of `g`: the top-k communities in decreasing influence order.
    */
  def topK(g: WGraph, res: CvsResult, p: Int, k: Int): Seq[Community] = {
    val idx = new CommunityIndex(g)
    val from = math.max(0, res.keys.length - k)
    idx.process(res, p, from)
    (res.keys.length - 1 to from by -1).map(i => idx.community(res.keys(i)))
  }
}
