package repro.core

import repro.graph.WGraph
import repro.util.{DisjointSet, IntArrayList}

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
    val members = new Array[Long](ranks.length)
    var i = 0
    while (i < ranks.length) { members(i) = g.origId(ranks(i)); i += 1 }
    java.util.Arrays.sort(members)
    Community(g.origId(key), g.weights(key), members)
  }
}

/** Algorithm 3 (EnumIC), its progressive variant EnumIC-P, and EnumICC
  * (§5.2): one array-backed community forest.
  *
  * Keynodes are linked in decreasing weight order, each as one node of the
  * forest. Key u *claims* the members it adds: every vertex of its group
  * gp(u) (EnumIC), or every endpoint of its edge group that no earlier key
  * holds (EnumICC). A vertex that an earlier key already holds, or (EnumIC)
  * an assigned neighbour of gp(u), names a child community IC(u') ⊂ IC(u),
  * whose root is linked under u rather than copied — so linking is
  * O(size(prefix)) regardless of the total (overlapping) output size.
  *
  * The layout, every array sized to the processed prefix and none to n:
  *  - `ds`: the disjoint set over vertex ranks (the paper's `v2key`), grown
  *    by doubling to the largest key rank, and `keyIdx`, key rank → node;
  *  - `pool`: the vertices each node claimed, node after node: node c's are
  *    `pool[grpOff(c), grpOff(c + 1))`, for EnumIC exactly gp(u);
  *  - `chOff`/`chList`: the children of each node, a CSR over node indices;
  *  - `sizes`: |IC(u)|, summed when u is linked, after its children.
  *
  * A community's members are written by an explicit-stack walk of its
  * subtree into an array of exactly |IC(u)|, so the forest's depth is not
  * bounded by the call stack.
  *
  * LocalSearch-P reuses one instance across rounds: a later (lower-weight)
  * round appends its nodes and can link communities reported by earlier
  * rounds as children.
  */
final class CommunityIndex(val g: WGraph) {

  private val ds = new DisjointSet()
  private var keyIdx = new Array[Int](ds.capacity)
  private val pool = new IntArrayList()
  private val grpOff = new IntArrayList()
  private val chOff = new IntArrayList()
  private val chList = new IntArrayList()
  private val sizes = new IntArrayList()
  private val stack = new IntArrayList()
  grpOff.add(0)
  chOff.add(0)

  /** The key being linked, and the size of its community so far. */
  private var cur = -1
  private var curSize = 0

  /** EnumIC: link keys `[fromIdx, res.count)` of one CvsResult. `p` is the
    * prefix the CvsResult was computed over (bounds the neighbour scans). For
    * plain EnumIC on the last k keys pass `fromIdx = res.count - k`;
    * LocalSearch-P passes 0 for each segment.
    */
  def process(res: CvsResult, p: Int, fromIdx: Int = 0): Unit =
    link(res, fromIdx) { v => claim(v); g.foreachNeighborIn(v, p)(adjacent) }

  /** EnumICC: link keys `[fromIdx, res.count)` of one γ-truss peel. */
  private[core] def processEdges(res: TrussCvs, fromIdx: Int): Unit =
    link(res, fromIdx) { e => claim(res.eA(e)); claim(res.eB(e)) }

  /** Link the keys `[fromIdx, res.count)` in decreasing weight order, passing
    * every entry of each key's group to `entry`.
    */
  private def link(res: KeyedCvs, fromIdx: Int)(entry: Int => Unit): Unit = {
    var i = res.count - 1
    while (i >= fromIdx) {
      cur = res.keys(i)
      ds.makeRoot(cur)
      if (keyIdx.length < ds.capacity) keyIdx = java.util.Arrays.copyOf(keyIdx, ds.capacity)
      keyIdx(cur) = sizes.length
      pool.add(cur)
      curSize = 1
      var j = res.keyPos(i)
      val end = res.groupEnd(i)
      while (j < end) { entry(res.cvs(j)); j += 1 }
      grpOff.add(pool.length)
      chOff.add(chList.length)
      sizes.add(curSize)
      i -= 1
    }
  }

  /** `v` is a member of the current key's community. */
  private def claim(v: Int): Unit =
    if (ds.assigned(v)) linkRootOf(v)
    else { ds.assign(v, cur); pool.add(v); curSize += 1 }

  /** `v` is adjacent to the current key's group: whatever holds it is a child. */
  private val adjacent: Int => Unit = v => if (ds.assigned(v)) linkRootOf(v)

  /** Roots are always key ranks, so `find(v)` names the smallest (so far)
    * keynode whose community holds v, and re-rooting it under the current
    * key is the paper's Union(v, u).
    */
  private def linkRootOf(v: Int): Unit = {
    val r = ds.find(v)
    if (r != cur) {
      val c = keyIdx(r)
      chList.add(c)
      curSize += sizes(c)
      ds.unionInto(r, cur)
    }
  }

  /** Member ranks of node `c`'s community: its subtree's claimed vertices,
    * which are disjoint.
    */
  private def memberRanks(c: Int): Array[Int] = {
    val out = new Array[Int](sizes(c))
    var at = 0
    stack.add(c)
    while (!stack.isEmpty) {
      val x = stack.pop()
      pool.copyTo(grpOff(x), grpOff(x + 1), out, at)
      at += grpOff(x + 1) - grpOff(x)
      var ch = chOff(x)
      while (ch < chOff(x + 1)) { stack.add(chList(ch)); ch += 1 }
    }
    out
  }

  /** |IC(key)| without materialising the member list. */
  def communitySize(key: Int): Int = sizes(keyIdx(key))

  /** Materialise IC(key) with original ids. */
  def community(key: Int): Community = Community.of(g, key, memberRanks(keyIdx(key)))

  /** The §5.1 non-containment community of an NC keynode: exactly gp(u). */
  def ncCommunity(key: Int): Community = {
    val c = keyIdx(key)
    Community.of(g, key, pool.slice(grpOff(c), grpOff(c + 1)))
  }
}

object CommunityIndex {

  /** EnumIC on the last `k` keynodes of `res`, counted over the top-`p`
    * prefix of `g`: the top-k communities in decreasing influence order.
    */
  def topK(g: WGraph, res: CvsResult, p: Int, k: Int): Seq[Community] =
    lastK(g, res, k)(_.process(res, p, _))

  /** The communities of the last `k` keys of `res`, in decreasing influence
    * order, from one forest that `link(index, fromIdx)` fills.
    */
  private[core] def lastK(g: WGraph, res: KeyedCvs, k: Int)
                         (link: (CommunityIndex, Int) => Unit): Seq[Community] = {
    val idx = new CommunityIndex(g)
    val from = math.max(0, res.count - k)
    link(idx, from)
    (res.count - 1 to from by -1).map(i => idx.community(res.keys(i)))
  }
}
