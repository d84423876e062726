package repro.core

import repro.graph.WGraph
import repro.util.{IntArrayList, IntQueue}

import scala.collection.mutable

/** Mutable γ-truss peeling engine over the top-`p` prefix of a [[WGraph]].
  *
  * A graph is a γ-truss iff every edge participates in ≥ γ−2 triangles.
  * Edges are indexed in the prefix-store order (the graph's `hi` array: for
  * u ascending, each edge of u's `hi` row), supports are maintained under
  * cascading edge removal, and a vertex leaves the graph when its last edge
  * does — mirroring Alg. 7, where cvs is a sequence of *edges*.
  */
final class TrussPeeler(val g: WGraph, val p: Int, val gamma: Int) {

  /** Edge endpoint arrays: edge e joins eA(e) (smaller rank) and eB(e), and is `g.hi(e)`. */
  val eA: Array[Int] = java.util.Arrays.copyOf(g.hi, g.hiOff(p))
  val eB: Array[Int] = {
    val b = new Array[Int](eA.length)
    var u = 0
    while (u < p) { java.util.Arrays.fill(b, g.hiOff(u), g.hiOff(u + 1), u); u += 1 }
    b
  }

  val mEdges: Int = eA.length

  /** Alive adjacency: neighbour rank → edge id. */
  val adj: Array[mutable.HashMap[Int, Int]] = Array.fill(p)(new mutable.HashMap[Int, Int])

  {
    var e = 0
    while (e < mEdges) { adj(eA(e)).update(eB(e), e); adj(eB(e)).update(eA(e), e); e += 1 }
  }

  /** Triangles each alive edge currently participates in. */
  val support: Array[Int] = {
    val s = new Array[Int](mEdges)
    var e = 0
    while (e < mEdges) {
      val (x, y) = (eA(e), eB(e))
      val (small, large) = if (adj(x).size <= adj(y).size) (adj(x), adj(y)) else (adj(y), adj(x))
      var cnt = 0
      small.keysIterator.foreach(z => if (large.contains(z)) cnt += 1)
      s(e) = cnt
      e += 1
    }
    s
  }

  val eAlive: Array[Boolean] = Array.fill(mEdges)(true)
  private val queued = new Array[Boolean](mEdges)
  private val queue = new IntQueue(mEdges)

  /** Alive-edge count per vertex; a vertex is "in the graph" iff > 0. */
  val vDeg: Array[Int] = {
    val d = new Array[Int](p)
    var e = 0
    while (e < mEdges) { d(eA(e)) += 1; d(eB(e)) += 1; e += 1 }
    d
  }

  /** Reduce to the γ-truss (Alg. 7 line 1; removals not recorded). */
  def reduceToTruss(): Unit = {
    var e = 0
    while (e < mEdges) {
      if (support(e) < gamma - 2 && !queued(e)) { queued(e) = true; queue.push(e) }
      e += 1
    }
    drain(null)
  }

  /** Force-remove all remaining edges of vertex `u` with cascade, recording
    * removed edge ids into `cvs` (Alg. 7 lines 7–8).
    */
  def removeVertexEdges(u: Int, cvs: IntArrayList): Unit = {
    val eids = adj(u).values.toArray
    var i = 0
    while (i < eids.length) {
      val e = eids(i)
      if (eAlive(e) && !queued(e)) { queued(e) = true; queue.push(e) }
      i += 1
    }
    drain(cvs)
  }

  private def drain(cvs: IntArrayList): Unit = {
    while (!queue.isEmpty) {
      val e = queue.pop()
      val x = eA(e); val y = eB(e)
      // Decrement the supports of both partner edges of every triangle on e.
      val (small, large) = if (adj(x).size <= adj(y).size) (adj(x), adj(y)) else (adj(y), adj(x))
      small.foreach { case (z, e1) =>
        if (z != x && z != y) large.get(z) match {
          case Some(e2) =>
            dec(e1); dec(e2)
          case None => ()
        }
      }
      adj(x).remove(y)
      adj(y).remove(x)
      eAlive(e) = false
      vDeg(x) -= 1
      vDeg(y) -= 1
      if (cvs != null) cvs.add(e)
    }
  }

  private def dec(e: Int): Unit = {
    if (support(e) == gamma - 2 && !queued(e)) { queued(e) = true; queue.push(e) }
    support(e) -= 1
  }
}

/** Result of CountICC: keynodes plus the community-aware *edge* sequence. */
final case class TrussCvs(keys: Array[Int], keyPos: Array[Int], cvs: Array[Int],
                          eA: Array[Int], eB: Array[Int]) extends KeyedCvs

/** Algorithms 6–7: influential γ-truss community search (§5.2 case study). */
object Truss {

  /** Alg. 7 CountICC: peel the top-`p` prefix, returning keys and edge cvs. */
  def countICC(g: WGraph, p: Int, gamma: Int): TrussCvs = {
    val peeler = new TrussPeeler(g, p, gamma)
    peeler.reduceToTruss()
    val keys = new IntArrayList()
    val keyPos = new IntArrayList()
    val cvs = new IntArrayList()
    var cursor = p - 1
    while (cursor >= 0) {
      while (cursor >= 0 && peeler.vDeg(cursor) == 0) cursor -= 1
      if (cursor >= 0) {
        keyPos.add(cvs.length)
        keys.add(cursor)
        peeler.removeVertexEdges(cursor, cvs)
      }
    }
    TrussCvs(keys.toArray, keyPos.toArray, cvs.toArray, peeler.eA, peeler.eB)
  }

  /** EnumICC: the communities of the last `k` keynodes of `res`, counted
    * over the top-`p` prefix, from the community forest of EnumIC over edge
    * groups. Each vertex is claimed by the first key whose edges reach it,
    * so a community's members need no dedup.
    */
  def enumICC(g: WGraph, p: Int, res: TrussCvs, k: Int): Seq[Community] =
    CommunityIndex.lastK(g, res, k)(_.processEdges(res, _))

  /** Alg. 6 instantiated for γ-truss: LocalSearch-Truss. */
  def localSearchTopK(g: WGraph, k: Int, gamma: Int,
                      delta: Double = 2.0): (Seq[Community], SearchStats) = {
    val (_, res, stats) = LocalSearch.search(g, k, gamma, g.deltaStep(delta))(countICC(_, _, gamma))(_.count)
    (enumICC(g, stats.finalPrefix, res, k), stats)
  }

  /** Eval-VIII's GlobalSearch-Truss: CountICC on the whole graph + EnumICC. */
  def globalSearchTopK(g: WGraph, k: Int, gamma: Int): Seq[Community] = {
    LocalSearch.requireArgs(k, gamma)
    val res = Truss.countICC(g, g.n, gamma)
    enumICC(g, g.n, res, k)
  }
}
