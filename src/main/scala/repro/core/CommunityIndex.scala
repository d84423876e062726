package repro.core

import repro.graph.WGraph
import repro.util.{DisjointSet, IntArrayList}

/** A materialised influential γ-community. `members` are original vertex ids,
  * sorted ascending, in a fresh array that no other community shares;
  * `influence` is the weight of the keynode.
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
  * A community is materialised from sorted runs, not from scratch: the
  * sorted member arrays its materialised descendants keep in their slots,
  * and the ids the rest of its subtree claimed, sorted on their own; then
  * one `Arrays.sort` over the concatenation, which (JDK 14 and later) finds
  * the ascending runs and merges them. Each node has one private slot that
  * keeps its sorted ids from its materialisation until an ancestor's walk
  * reads and clears it. A node whose ancestor was materialised before it
  * keeps nothing, since only a repeat call of that ancestor could read it;
  * so kept slots never nest and sum to at most the prefix, in any order.
  * Children-first callers ([[CommunityIndex.topK]], LocalSearch-P, EnumICC)
  * get the most runs; other orders walk more of the subtree. The walk uses
  * an explicit stack, so the forest's depth is not bounded by the call stack.
  *
  * LocalSearch-P reuses one instance across rounds and links each key when
  * its iterator reaches it: a later (lower-weight) key can link communities
  * reported before it, in any round, as children.
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
  /** Per node, its sorted member ids once materialised, until an ancestor reads them. */
  private var slots = new Array[Array[Long]](16)
  /** Per node, whether one of its ancestors has been materialised. */
  private var covered = new Array[Boolean](16)
  grpOff.add(0)
  chOff.add(0)

  /** The key being linked, and the size of its community so far. */
  private var cur = -1
  private var curSize = 0

  /** EnumIC: [[link]] keys `[fromIdx, res.count)` of one CvsResult, from the
    * highest weight down; for the last k keys pass `fromIdx = res.count - k`.
    */
  def process(res: CvsResult, p: Int, fromIdx: Int = 0): Unit = {
    var i = res.count - 1
    while (i >= fromIdx) { link(res, i, p); i -= 1 }
  }

  /** EnumIC for key `res.keys(i)`, counted over the top-`p` prefix (which
    * bounds the neighbour scans), once every higher-weight key is linked. The
    * neighbour loops are written out, not passed as a closure (see
    * [[repro.graph.Peeler]]).
    */
  private[core] def link(res: CvsResult, i: Int, p: Int): Unit = {
    val hiOff = g.hiOff
    val hi = g.hi
    val loOff = g.loOff
    val lo = g.lo
    open(res.keys(i))
    var j = res.keyPos(i)
    val end = res.groupEnd(i)
    while (j < end) {
      val v = res.cvs(j)
      claim(v)
      // v is adjacent to the rest of the group: whatever holds a neighbour is a child.
      var a = hiOff(v)
      val hEnd = hiOff(v + 1)
      while (a < hEnd) { if (ds.assigned(hi(a))) linkRootOf(hi(a)); a += 1 }
      a = loOff(v)
      val lEnd = loOff(v + 1)
      while (a < lEnd && lo(a) < p) { if (ds.assigned(lo(a))) linkRootOf(lo(a)); a += 1 }
      j += 1
    }
    close()
  }

  /** EnumICC: link keys `[fromIdx, res.count)` of one γ-truss peel. */
  private[core] def processEdges(res: TrussCvs, fromIdx: Int): Unit = {
    var i = res.count - 1
    while (i >= fromIdx) {
      open(res.keys(i))
      var j = res.keyPos(i)
      val end = res.groupEnd(i)
      while (j < end) { val e = res.cvs(j); claim(res.eA(e)); claim(res.eB(e)); j += 1 }
      close()
      i -= 1
    }
  }

  /** Start the node of key `u`; keys are opened in decreasing weight order. */
  private def open(u: Int): Unit = {
    cur = u
    ds.makeRoot(cur)
    if (keyIdx.length < ds.capacity) keyIdx = java.util.Arrays.copyOf(keyIdx, ds.capacity)
    keyIdx(cur) = sizes.length
    pool.add(cur)
    curSize = 1
  }

  /** Finish the current key's node after all its members and children. */
  private def close(): Unit = {
    grpOff.add(pool.length)
    chOff.add(chList.length)
    sizes.add(curSize)
  }

  /** `v` is a member of the current key's community. */
  private def claim(v: Int): Unit =
    if (ds.assigned(v)) linkRootOf(v)
    else { ds.assign(v, cur); pool.add(v); curSize += 1 }

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

  /** Sorted member ids of node `c`, whose slot is empty. Its subtree is
    * walked from `c`: a materialised descendant's slot is copied to the front
    * as one sorted run (and cleared) and its subtree is skipped; every other
    * node's claimed ids go to the back, which is sorted before the whole.
    * Every node the walk reaches below `c` is marked covered; the subtree of
    * a skipped node was marked by that node's own walk, so once `c` is
    * materialised its whole subtree is covered.
    */
  private def memberIds(c: Int): Array[Long] = {
    val out = new Array[Long](sizes(c))
    var front = 0
    var back = out.length
    stack.add(c)
    while (!stack.isEmpty) {
      val x = stack.pop()
      val run = slots(x)
      if (run != null) {
        System.arraycopy(run, 0, out, front, run.length)
        front += run.length
        slots(x) = null
      } else {
        var j = grpOff(x)
        while (j < grpOff(x + 1)) { back -= 1; out(back) = g.origId(pool(j)); j += 1 }
        var ch = chOff(x)
        while (ch < chOff(x + 1)) { covered(chList(ch)) = true; stack.add(chList(ch)); ch += 1 }
      }
    }
    java.util.Arrays.sort(out, back, out.length)
    java.util.Arrays.sort(out)
    out
  }

  /** The number of keys linked so far, one forest node each. */
  private[core] def linked: Int = sizes.length

  /** The ids the slots hold now: at most the prefix. */
  private[core] def keptIds: Long = slots.iterator.filter(_ != null).map(_.length.toLong).sum

  /** |IC(key)| without materialising the member list. */
  def communitySize(key: Int): Int = sizes(keyIdx(key))

  /** Materialise IC(key) with original ids. Cheapest when the key's child
    * communities were materialised first; any order gives the same answer.
    */
  def community(key: Int): Community = {
    val c = keyIdx(key)
    if (slots.length < sizes.length) {
      val cap = math.max(sizes.length, slots.length * 2)
      slots = java.util.Arrays.copyOf(slots, cap)
      covered = java.util.Arrays.copyOf(covered, cap)
    }
    val members =
      if (slots(c) != null) slots(c).clone()
      else {
        val ids = memberIds(c)
        if (covered(c)) ids else { slots(c) = ids; ids.clone() }
      }
    Community(g.origId(key), g.weights(key), members)
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
