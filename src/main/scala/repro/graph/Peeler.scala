package repro.graph

import repro.util.{IntArrayList, IntQueue}

/** Mutable γ-core peeling engine over the top-`p` prefix of a [[WGraph]].
  *
  * This is the shared machinery of Alg. 2 (CountIC), Alg. 5 (ConstructCVS)
  * and every baseline: an `alive` bitmap plus maintained degrees, an initial
  * reduction to the γ-core, and the cascading `Remove(u, g, cvs)` procedure
  * (Alg. 2 lines 9–15). Each vertex enters the removal queue at most once
  * because a vertex is enqueued exactly when its degree is about to drop from
  * γ to γ−1 (the paper's "degree == γ" check), so the whole peel is linear in
  * `size(prefix)`.
  */
final class Peeler(val g: WGraph, val p: Int, val gamma: Int) {

  // Primitive fills: a Peeler is built every round, and the generic
  // Array.fill/tabulate can be compiled into a much slower form.

  /** Liveness by rank (`< p`). */
  val alive: Array[Boolean] = new Array[Boolean](p)
  java.util.Arrays.fill(alive, true)

  /** Current degree within the alive prefix subgraph. */
  val deg: Array[Int] = {
    val d = new Array[Int](p)
    var u = 0
    while (u < p) { d(u) = g.degIn(u, p); u += 1 }
    d
  }

  /** Number of currently alive vertices. */
  var aliveCount: Int = p

  private val queue = new IntQueue(p)

  /** Every rank above `cursor` is dead; [[nextKeynode]] moves it down. */
  private var cursor = p - 1

  /** The minimum-weight alive vertex (the largest alive rank), or −1 when no
    * vertex is alive: the next keynode of Alg. 2. Vertices never revive, so
    * the scan resumes where the last call stopped and a whole peel visits
    * each rank once.
    */
  def nextKeynode(): Int = {
    while (cursor >= 0 && !alive(cursor)) cursor -= 1
    cursor
  }

  /** Reduce to the γ-core (Alg. 2 line 1). Removed vertices are *not*
    * recorded in cvs, per the paper (only `Remove` appends to cvs).
    */
  def reduceToCore(): Unit = {
    var u = 0
    while (u < p) {
      if (deg(u) < gamma) queue.push(u)
      u += 1
    }
    drain(null)
  }

  /** Remove keynode `u` and cascade core maintenance, appending every removed
    * vertex (u first) to `cvs` if non-null.
    */
  def remove(u: Int, cvs: IntArrayList): Unit = {
    queue.push(u)
    drain(cvs)
  }

  private lazy val mark = new Array[Int](p)
  private var curMark = 0

  /** Replace the contents of `out` with the connected component of alive
    * vertex `u` over alive vertices (the OnlineAll traversal). Returns the
    * number of neighbour visits made, OnlineAll's work metric.
    */
  def component(u: Int, out: IntArrayList): Long = {
    curMark += 1
    out.clear(); out.add(u); mark(u) = curMark
    var visits = 0L
    var top = 0
    while (top < out.length) {
      val v = out(top)
      var i = g.hiOff(v)
      val hEnd = g.hiOff(v + 1)
      while (i < hEnd) { reach(g.hi(i), out); i += 1 }
      i = g.loOff(v)
      val lEnd = g.loOff(v + 1)
      while (i < lEnd && g.lo(i) < p) { reach(g.lo(i), out); i += 1 }
      visits += hEnd - g.hiOff(v) + i - g.loOff(v)
      top += 1
    }
    visits
  }

  private def reach(w: Int, out: IntArrayList): Unit =
    if (alive(w) && mark(w) != curMark) { mark(w) = curMark; out.add(w) }

  /** Whether some vertex of `vs[from, vs.length)` has an alive neighbour: a
    * removed batch without one is a non-containment group (§5.1). Stops at
    * the first alive neighbour.
    */
  def touchesAlive(vs: IntArrayList, from: Int): Boolean = {
    var j = from
    while (j < vs.length) {
      val v = vs(j)
      var i = g.hiOff(v)
      val hEnd = g.hiOff(v + 1)
      while (i < hEnd) { if (alive(g.hi(i))) return true; i += 1 }
      i = g.loOff(v)
      val lEnd = g.loOff(v + 1)
      while (i < lEnd && g.lo(i) < p) { if (alive(g.lo(i))) return true; i += 1 }
      j += 1
    }
    false
  }

  // The neighbour loops here and in CommunityIndex are written out over the
  // graph's CSR arrays rather than through WGraph.foreachNeighborIn: that
  // method's one call site of its closure would see every loop's lambda
  // class, and a megamorphic call per neighbour visit is most of a peel's time.
  private def drain(cvs: IntArrayList): Unit = {
    val hiOff = g.hiOff
    val hi = g.hi
    val loOff = g.loOff
    val lo = g.lo
    while (!queue.isEmpty) {
      val v = queue.pop()
      var i = hiOff(v)
      val hEnd = hiOff(v + 1)
      while (i < hEnd) { lower(hi(i)); i += 1 }
      i = loOff(v)
      val lEnd = loOff(v + 1)
      while (i < lEnd && lo(i) < p) { lower(lo(i)); i += 1 }
      alive(v) = false
      aliveCount -= 1
      if (cvs != null) cvs.add(v)
    }
  }

  /** A neighbour of a removed vertex loses one degree. It is queued exactly
    * when its degree sits at γ (about to fall below): a vertex's degree
    * passes through γ at most once, so no re-push.
    */
  private def lower(w: Int): Unit =
    if (alive(w)) {
      if (deg(w) == gamma) queue.push(w)
      deg(w) -= 1
    }
}

/** Read-only graph algorithms shared by baselines, stats and tests. */
object GraphOps {

  /** Ranks of the γ-core of the top-`p` prefix. */
  def gammaCore(g: WGraph, gamma: Int, p: Int): Array[Int] = {
    val peeler = new Peeler(g, p, gamma)
    peeler.reduceToCore()
    val out = new IntArrayList(peeler.aliveCount)
    var u = 0
    while (u < p) { if (peeler.alive(u)) out.add(u); u += 1 }
    out.toArray
  }

  /** Full core decomposition: coreness number per rank (standard bucket peel).
    * Used for the Table-1 γ_max statistic (γ_max = max coreness).
    */
  def coreDecomposition(g: WGraph): Array[Int] = {
    val n = g.n
    val deg = Array.tabulate(n)(g.degree)
    val maxDeg = if (n == 0) 0 else deg.max
    // bucket sort vertices by degree
    val bin = new Array[Int](maxDeg + 2)
    var u = 0
    while (u < n) { bin(deg(u)) += 1; u += 1 }
    var start = 0
    var d = 0
    while (d <= maxDeg) { val c = bin(d); bin(d) = start; start += c; d += 1 }
    val pos = new Array[Int](n)
    val vert = new Array[Int](n)
    u = 0
    while (u < n) { pos(u) = bin(deg(u)); vert(pos(u)) = u; bin(deg(u)) += 1; u += 1 }
    d = maxDeg
    while (d >= 0) { bin(d + 1) = bin(d); d -= 1 }
    bin(0) = 0
    val core = new Array[Int](n)
    var i = 0
    while (i < n) {
      val v = vert(i)
      core(v) = deg(v)
      g.foreachNeighborIn(v, n) { w =>
        if (deg(w) > deg(v)) {
          val dw = deg(w); val pw = pos(w); val pfirst = bin(dw); val vfirst = vert(pfirst)
          if (v != vfirst && w != vfirst) {
            vert(pw) = vfirst; vert(pfirst) = w
            pos(w) = pfirst; pos(vfirst) = pw
          }
          bin(dw) += 1
          deg(w) -= 1
        }
      }
      i += 1
    }
    core
  }

  /** Connected components of the subgraph induced by `members` (within prefix
    * `p`). Returns a component id per rank (−1 outside `members`).
    */
  def components(g: WGraph, members: Array[Int], p: Int): Array[Int] = {
    val comp = Array.fill(p)(-1)
    val inSet = new Array[Boolean](p)
    members.foreach(inSet(_) = true)
    val stack = new IntArrayList()
    var cid = 0
    for (s <- members if comp(s) == -1) {
      comp(s) = cid
      stack.clear(); stack.add(s)
      var top = 0
      while (top < stack.length) {
        val v = stack(top); top += 1
        g.foreachNeighborIn(v, p) { w =>
          if (w < p && inSet(w) && comp(w) == -1) { comp(w) = cid; stack.add(w) }
        }
      }
      cid += 1
    }
    comp
  }
}
