package repro.core

import repro.graph.{PrefixEdges, PrefixSizes, WGraph}

/** Execution statistics for the analysis of §3.3 and the benches.
  *
  * @param rounds       number of CountIC invocations (h in Lemma 3.7)
  * @param finalPrefix  number of ranks in the last processed prefix
  * @param accessedSize size(G≥τ_h) — the largest subgraph accessed
  * @param workSize     Σ_i size(G≥τ_i) — total peel work
  */
final case class SearchStats(rounds: Int, finalPrefix: Int,
                             accessedSize: Long, workSize: Long)

/** Algorithm 1: the instance-optimal LocalSearch for top-k influential
  * γ-community search.
  *
  * Starts from the heuristic prefix of `k + γ` vertices (a γ-community has ≥
  * γ+1 members, so k communities span ≥ k+γ distinct vertices), counts
  * communities with [[CountIC]], and grows the prefix by the ratio δ (line 4)
  * until it contains ≥ k communities or equals G; the answer is then
  * enumerated from the final prefix with [[CommunityIndex]] (EnumIC). The
  * loop itself is [[LocalSearch.search]], which every local search of the
  * reproduction runs with its own counter, prefix source or growth step.
  */
object LocalSearch {

  /** Top-k influential γ-communities in decreasing influence order. */
  def topK(g: WGraph, k: Int, gamma: Int, delta: Double = 2.0): (Seq[Community], SearchStats) = {
    val (res, stats) = search(g, k, gamma, g.deltaStep(delta))(CountIC.run(g, _, gamma))(_.count)
    (CommunityIndex.topK(g, res, stats.finalPrefix, k), stats)
  }

  /** Top-k *non-containment* influential γ-communities (§5.1). The community
    * of an NC keynode u is exactly gp(u), so no EnumIC pass is needed.
    */
  def topKNonContainment(g: WGraph, k: Int, gamma: Int,
                         delta: Double = 2.0): (Seq[Community], SearchStats) = {
    val (res, stats) =
      search(g, k, gamma, g.deltaStep(delta))(CountIC.run(g, _, gamma, trackNc = true))(_.ncCount)
    // The last k NC keys, from the highest weight down.
    val out = Vector.newBuilder[Community]
    var found = 0
    var i = res.count - 1
    while (i >= 0 && found < k) {
      if (res.nc(i)) { out += Community.of(g, res.keys(i), res.group(i)); found += 1 }
      i -= 1
    }
    (out.result(), stats)
  }

  /** The search framework of Alg. 1 and Alg. 6, shared by every local search.
    *
    * Counts on the `k + γ` prefix, then grows the prefix with `step` and
    * counts again until `found` reports at least k communities or the prefix
    * is the whole graph. The caller enumerates the answer from the returned
    * last count over `stats.finalPrefix` ranks.
    *
    * @param sizes prefix sizes of the searched graph (the work statistics)
    * @param step  next prefix length after `p`, with `p < step(p) ≤ n`: the
    *              δ-growth of [[PrefixSizes.deltaStep]], or `_ + 1` for Backward
    * @param count the counter of one round, run on the top-`p` prefix
    * @param found the number of communities a count found
    */
  private[repro] def search[R](sizes: PrefixSizes, k: Int, gamma: Int, step: Int => Int)
                             (count: Int => R)(found: R => Int): (R, SearchStats) = {
    requireArgs(k, gamma)
    var p = math.min(sizes.n.toLong, k.toLong + gamma).toInt // k + γ overflows Int
    var res = count(p)
    var rounds = 1
    var work = sizes.prefixSize(p)
    while (found(res) < k && p < sizes.n) {
      p = step(p)
      res = count(p)
      rounds += 1
      work += sizes.prefixSize(p)
    }
    (res, SearchStats(rounds, p, sizes.prefixSize(p), work))
  }

  /** Alg. 1 over an edge store (LocalSearch-SE, DistLocalSearch): each round
    * fetches only the edges its prefix gained, builds the prefix from every
    * edge held and counts on it. `onRound(round, p)` runs before the fetch.
    */
  private[repro] def searchEdges(src: PrefixEdges, k: Int, gamma: Int, delta: Double,
                                 onRound: (Int, Int) => Unit = (_, _) => ()): (Seq[Community], SearchStats) = {
    var edges = Array.emptyLongArray
    var fetched = 0
    var rounds = 0
    var prefix: WGraph = null
    val (res, stats) = search(src, k, gamma, src.deltaStep(delta)) { p =>
      rounds += 1
      onRound(rounds, p)
      edges ++= src.fetch(fetched, p)
      fetched = p
      prefix = src.prefixGraph(p, edges)
      CountIC.run(prefix, p, gamma)
    }(_.count)
    (CommunityIndex.topK(prefix, res, stats.finalPrefix, k), stats)
  }

  /** The argument checks of every top-k entry point. */
  private[repro] def requireArgs(k: Int, gamma: Int): Unit = {
    require(k >= 1, "k must be positive")
    require(gamma >= 1, "gamma must be positive")
  }
}
