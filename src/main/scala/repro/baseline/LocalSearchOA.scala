package repro.baseline

import repro.core.{Community, CommunityIndex, CountIC, LocalSearch, SearchStats}
import repro.graph.{Peeler, WGraph}
import repro.util.IntArrayList

/** Eval-III's LocalSearch-OA: the LocalSearch framework with the counting
  * subroutine replaced by an OnlineAll-style peel that traverses the
  * connected component of every keynode (i.e. counting *with* enumeration
  * cost). Isolates the benefit of CountIC: the framework is identical, only
  * the per-prefix counter differs.
  */
object LocalSearchOA {

  /** Top-k communities in decreasing influence order, with stats. */
  def topK(g: WGraph, k: Int, gamma: Int, delta: Double = 2.0): (Seq[Community], SearchStats) = {
    val (_, _, stats) = LocalSearch.search(g, k, gamma, g.deltaStep(delta))(countViaComponents(_, _, gamma))(identity)
    // Final answer via the shared enumeration (identical to LocalSearch).
    val p = stats.finalPrefix
    (CommunityIndex.topK(g, CountIC.run(g, p, gamma), p, k), stats)
  }

  /** OnlineAll-style counting: per keynode, traverse its whole component. */
  private def countViaComponents(g: WGraph, p: Int, gamma: Int): Int = {
    val peeler = new Peeler(g, p, gamma)
    peeler.reduceToCore()
    val stack = new IntArrayList()
    var count = 0
    var u = peeler.nextKeynode()
    while (u >= 0) {
      count += 1
      peeler.component(u, stack)
      peeler.remove(u, null)
      u = peeler.nextKeynode()
    }
    count
  }
}
