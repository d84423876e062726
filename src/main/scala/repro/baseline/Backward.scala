package repro.baseline

import repro.core.{Community, LocalSearch, SearchStats}
import repro.graph.WGraph

/** The Backward local search baseline [Chen et al., CIKM'16].
  *
  * Grows the weight prefix *one vertex at a time*, re-running the counting
  * peel from scratch on every prefix until k communities exist — so its total
  * work is Σ_p size(prefix_p) = O(size(accessed)²), the quadratic behaviour
  * the paper attributes to Backward (it is outperformed by Forward once γ is
  * large and the accessed prefix grows).
  */
object Backward {

  /** Top-k communities in decreasing influence order, with work stats. */
  def topK(g: WGraph, k: Int, gamma: Int): (Seq[Community], SearchStats) =
    LocalSearch.topKOf(g, k, gamma, _ + 1) // vertex-at-a-time growth: the quadratic-cost signature
}
