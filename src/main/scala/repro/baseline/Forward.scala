package repro.baseline

import repro.core.{Community, LocalSearch}
import repro.graph.{Peeler, WGraph}
import repro.util.IntArrayList

/** The Forward global search baseline [Chen et al., CIKM'16].
  *
  * Improves on OnlineAll by performing the expensive connected-component
  * subroutine only for the last k iterations: a first global peel counts the
  * keynodes, a second peel skips the first (count − k) keynodes and computes
  * the component of the minimum-weight vertex for the remaining k. Still a
  * *global* algorithm — both passes traverse the whole graph.
  */
object Forward {

  /** Top-k communities in decreasing influence order. */
  def topK(g: WGraph, k: Int, gamma: Int): Seq[Community] = {
    LocalSearch.requireArgs(k, gamma)
    val total = countKeynodes(g, gamma, nc = false)._1
    secondPass(g, k, gamma, total)
  }

  /** §5.1 variant: top-k non-containment communities (Eval-VII's Forward). */
  def topKNonContainment(g: WGraph, k: Int, gamma: Int): Seq[Community] = {
    LocalSearch.requireArgs(k, gamma)
    val totalNc = countKeynodes(g, gamma, nc = true)._2
    secondPassNc(g, k, gamma, totalNc)
  }

  /** Pass 1: peel everything, returning (#keynodes, #NC keynodes). */
  private def countKeynodes(g: WGraph, gamma: Int, nc: Boolean): (Int, Int) = {
    val peeler = new Peeler(g, g.n, gamma)
    peeler.reduceToCore()
    var count = 0
    var ncCount = 0
    val batch = new IntArrayList()
    var u = peeler.nextKeynode()
    while (u >= 0) {
      count += 1
      batch.clear()
      peeler.remove(u, batch)
      if (nc && !peeler.touchesAlive(batch, 0)) ncCount += 1
      u = peeler.nextKeynode()
    }
    (count, ncCount)
  }

  /** Pass 2: skip the first total−k keynodes, then compute components. */
  private def secondPass(g: WGraph, k: Int, gamma: Int, total: Int): Seq[Community] = {
    val peeler = new Peeler(g, g.n, gamma)
    peeler.reduceToCore()
    val skip = math.max(0, total - k)
    val out = List.newBuilder[Community]
    val stack = new IntArrayList()
    var seen = 0
    var u = peeler.nextKeynode()
    while (u >= 0) {
      if (seen >= skip) {
        peeler.component(u, stack)
        out += Community.of(g, u, stack.toArray)
      }
      seen += 1
      peeler.remove(u, null)
      u = peeler.nextKeynode()
    }
    out.result().reverse
  }

  private def secondPassNc(g: WGraph, k: Int, gamma: Int, totalNc: Int): Seq[Community] = {
    val peeler = new Peeler(g, g.n, gamma)
    peeler.reduceToCore()
    val skip = math.max(0, totalNc - k)
    var seenNc = 0
    val out = List.newBuilder[Community]
    val batch = new IntArrayList()
    var u = peeler.nextKeynode()
    while (u >= 0) {
      batch.clear()
      peeler.remove(u, batch)
      if (!peeler.touchesAlive(batch, 0)) {
        if (seenNc >= skip) out += Community.of(g, u, batch.toArray)
        seenNc += 1
      }
      u = peeler.nextKeynode()
    }
    out.result().reverse
  }
}
