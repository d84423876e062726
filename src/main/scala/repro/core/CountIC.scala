package repro.core

import repro.graph.{Peeler, WGraph}
import repro.util.IntArrayList

/** Keynodes of one peel with their groups, in removal order: the group of
  * `keys(i)` is `cvs[keyPos(i), groupEnd(i))`.
  */
trait KeyedCvs {
  def keys: Array[Int]
  def keyPos: Array[Int]
  def cvs: Array[Int]

  /** Number of communities found (Lemma 3.4: = #keynodes). */
  def count: Int = keys.length

  /** End of the i-th key's group in `cvs`. */
  def groupEnd(i: Int): Int = if (i + 1 < keys.length) keyPos(i + 1) else cvs.length

  /** Group of the i-th key, copied out of `cvs`. */
  def group(i: Int): Array[Int] = java.util.Arrays.copyOfRange(cvs, keyPos(i), groupEnd(i))
}

/** Output of CountIC / ConstructCVS over one prefix.
  *
  * @param keys   keynode ranks in removal order, i.e. **increasing weight**
  *               (keys(0) is the lowest-weight keynode of the prefix)
  * @param keyPos position of `keys(i)` in `cvs`; group `gp(keys(i))` is
  *               `cvs[keyPos(i) until keyPos(i+1))` (to the end for the last)
  * @param cvs    community-aware vertex sequence: every vertex removed by a
  *               `Remove` call, in removal order (core-reduction removals are
  *               excluded, per Alg. 2)
  * @param nc     non-containment flag per key (§5.1); empty unless requested
  */
final case class CvsResult(
    keys: Array[Int],
    keyPos: Array[Int],
    cvs: Array[Int],
    nc: Array[Boolean],
) extends KeyedCvs {
  /** Number of non-containment communities found. */
  def ncCount: Int = nc.count(identity)
}

/** Algorithm 2 (CountIC) and its progressive variant Algorithm 5
  * (ConstructCVS), plus the §5.1 non-containment keynode flagging.
  *
  * The peel reduces the prefix to its γ-core, then repeatedly takes the
  * minimum-weight (= maximum-rank) alive vertex as the next keynode and
  * removes it with cascading core maintenance. The "find minimum weight"
  * step is the monotone cursor [[Peeler.nextKeynode]], so the whole run is
  * O(size(prefix)).
  */
object CountIC {

  /** Peel the top-`p` prefix of `g`.
    *
    * @param stopBeforeRank progressive stop threshold (Alg. 5): stop as soon
    *                       as the next minimum-weight alive vertex has rank
    *                       `< stopBeforeRank`, i.e. weight ≥ τ_{i−1}. Pass 0
    *                       for a full peel (Alg. 2).
    * @param trackNc        also flag non-containment keynodes: a keynode u is
    *                       NC iff no vertex removed during `Remove(u)` has an
    *                       alive neighbour afterwards (§5.1).
    */
  def run(g: WGraph, p: Int, gamma: Int,
          stopBeforeRank: Int = 0, trackNc: Boolean = false): CvsResult = {
    val peeler = new Peeler(g, p, gamma)
    peeler.reduceToCore()

    val keys = new IntArrayList()
    val keyPos = new IntArrayList()
    val cvs = new IntArrayList()
    val ncFlags = new IntArrayList() // 0/1; converted at the end

    var u = peeler.nextKeynode()
    while (u >= 0 && u >= stopBeforeRank) {
      keyPos.add(cvs.length)
      keys.add(u)
      val before = cvs.length
      peeler.remove(u, cvs)
      // NC check: the removed batch must have no surviving neighbour.
      if (trackNc) ncFlags.add(if (peeler.touchesAlive(cvs, before)) 0 else 1)
      u = peeler.nextKeynode()
    }
    CvsResult(keys.toArray, keyPos.toArray, cvs.toArray,
              ncFlags.toArray.map(_ == 1))
  }
}
