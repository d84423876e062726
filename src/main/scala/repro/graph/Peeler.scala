package repro.graph

import repro.util.{IntArrayList, IntQueue}

/** Mutable γ-core peeling engine over the top-`p` prefix of a [[WGraph]].
  *
  * This is the shared machinery of Alg. 2 (CountIC), Alg. 5 (ConstructCVS),
  * every baseline and the tables' γ_max and Eval-IX figures: an `alive`
  * bitmap plus maintained degrees, an initial reduction to the γ-core, and
  * the cascading `Remove(u, g, cvs)` procedure (Alg. 2 lines 9–15). Each
  * vertex enters the removal queue at most once because a vertex is enqueued
  * exactly when its degree is about to drop from γ to γ−1 (the paper's
  * "degree == γ" check), so the whole peel is linear in `size(prefix)`.
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
  // graph's CSR arrays rather than shared as one visitor taking a closure:
  // that visitor's one call site of the closure would see every loop's lambda
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
