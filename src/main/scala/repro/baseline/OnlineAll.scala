package repro.baseline

import repro.core.{Community, LocalSearch}
import repro.graph.{Peeler, WGraph}
import repro.util.IntArrayList

import scala.collection.mutable

/** The OnlineAll global search baseline [Li et al., PVLDB'15].
  *
  * Iteratively: (1) reduce the current graph to its γ-core, (2) identify the
  * connected component containing the minimum-weight vertex — the next
  * influential γ-community in *increasing* influence order — and (3) remove
  * that vertex. The component traversal in step (2) is the dominant cost
  * (the communities overlap, so Σ|component| can be quadratic); the last k
  * identified communities are the answer. The whole input graph is always
  * traversed, regardless of k.
  */
object OnlineAll {

  /** Top-k communities in decreasing influence order, plus the number of
    * edge visits performed by the component traversals (the work metric).
    */
  def topK(g: WGraph, k: Int, gamma: Int): (Seq[Community], Long) = {
    LocalSearch.requireArgs(k, gamma)
    val n = g.n
    val peeler = new Peeler(g, n, gamma)
    peeler.reduceToCore()

    val lastK = new mutable.ArrayDeque[(Int, Array[Int])](math.min(k, n) + 1) // k + 1 overflows Int
    var visits = 0L
    val stack = new IntArrayList()

    var u = peeler.nextKeynode()
    while (u >= 0) {
      // Step 2: BFS the component of u over alive vertices.
      visits += peeler.component(u, stack)
      lastK.append((u, stack.toArray))
      if (lastK.length > k) lastK.removeHead()
      // Step 3: remove u and restore the γ-core.
      peeler.remove(u, null)
      u = peeler.nextKeynode()
    }

    (lastK.toSeq.reverse.map { case (u, ranks) => Community.of(g, u, ranks) }, visits)
  }
}
