package repro.core

import repro.graph.{PrefixSizes, WGraph}

/** Execution statistics for the analysis of §3.3 and the benches.
  *
  * @param rounds       number of CountIC invocations (h in Lemma 3.7)
  * @param finalPrefix  number of ranks in the last processed prefix
  * @param accessedSize size(G≥τ_h) — the largest subgraph accessed
  * @param workSize     Σ_i size(G≥τ_i) — total peel work
  */
final case class SearchStats(rounds: Int, finalPrefix: Int,
                             accessedSize: Long, workSize: Long)

/** Round `index` (from 1) of a δ-growth search, grown from `from` ranks: `graph`'s top-`p` prefix is G≥τ. */
private[repro] final case class Round(index: Int, from: Int, p: Int, graph: WGraph)

/** Algorithm 1: the instance-optimal LocalSearch for top-k influential
  * γ-community search.
  *
  * Starts from the heuristic prefix of `k + γ` vertices (a γ-community has ≥
  * γ+1 members, so k communities span ≥ k+γ distinct vertices), counts
  * communities with [[CountIC]], and grows the prefix by the ratio δ (line 4)
  * until it contains ≥ k communities or equals G; the answer is then
  * enumerated from the final prefix with [[CommunityIndex]] (EnumIC). The
  * prefixes come from [[LocalSearch.rounds]], which every local search of the
  * reproduction takes, with its own counter, prefix source or growth step.
  */
object LocalSearch {

  /** Top-k influential γ-communities in decreasing influence order. */
  def topK(g: WGraph, k: Int, gamma: Int, delta: Double = 2.0): (Seq[Community], SearchStats) =
    topKOf(g, k, gamma, g.deltaStep(delta))

  /** [[topK]] over any prefix source and growth step (LocalSearch-SE, DistLocalSearch, Backward). */
  private[repro] def topKOf(src: PrefixSizes, k: Int, gamma: Int, step: Int => Int,
                            onRound: (Int, Int) => Unit = (_, _) => ()): (Seq[Community], SearchStats) = {
    val (last, res, stats) = search(src, k, gamma, step, onRound)(CountIC.run(_, _, gamma))(_.count)
    (CommunityIndex.topK(last.graph, res, last.p, k), stats)
  }

  /** Top-k *non-containment* influential γ-communities (§5.1). The community
    * of an NC keynode u is exactly gp(u), so no EnumIC pass is needed.
    */
  def topKNonContainment(g: WGraph, k: Int, gamma: Int,
                         delta: Double = 2.0): (Seq[Community], SearchStats) = {
    val (_, res, stats) =
      search(g, k, gamma, g.deltaStep(delta))(CountIC.run(_, _, gamma, trackNc = true))(_.ncCount)
    // The last k NC keys, from the highest weight down.
    val out = Vector.newBuilder[Community]
    var found = 0
    var i = res.count - 1
    while (found < k && i >= 0) {
      if (res.nc(i)) { out += Community.of(g, res.keys(i), res.group(i)); found += 1 }
      i -= 1
    }
    (out.result(), stats)
  }

  /** The rounds of Alg. 1 and Alg. 4 over `src`: prefixes `min(n, p0)`, then
    * `step` (`p < step(p) ≤ n`: δ-growth, or `_ + 1` for Backward) until n,
    * each graph from one `src.prefixes()`, taken when the iterator reaches its
    * round and just after `onRound(index, p)`.
    */
  private[repro] def rounds(src: PrefixSizes, p0: Long, step: Int => Int,
                            onRound: (Int, Int) => Unit = (_, _) => ()): Iterator[Round] = new Iterator[Round] {
    private val prefix = src.prefixes()
    private var last = Round(0, 0, 0, null) // round 0: the empty prefix

    def hasNext: Boolean = last.index == 0 || last.p < src.n

    def next(): Round = {
      val p = if (last.index == 0) math.min(src.n.toLong, p0).toInt else step(last.p)
      onRound(last.index + 1, p)
      last = Round(last.index + 1, last.p, p, prefix(p))
      last
    }
  }

  /** The search framework of Alg. 1 and Alg. 6, shared by every top-k local
    * search: `count`s the [[rounds]] from the `k + γ` prefix until `found`
    * reports at least k communities or the prefix is the whole graph. The
    * caller enumerates the answer from the last round and its count.
    */
  private[repro] def search[R](src: PrefixSizes, k: Int, gamma: Int, step: Int => Int,
                               onRound: (Int, Int) => Unit = (_, _) => ())
                              (count: (WGraph, Int) => R)(found: R => Int): (Round, R, SearchStats) = {
    requireArgs(k, gamma)
    val it = rounds(src, k.toLong + gamma, step, onRound) // k + γ overflows Int
    var last = it.next()
    var res = count(last.graph, last.p)
    var work = src.prefixSize(last.p)
    while (found(res) < k && it.hasNext) {
      last = it.next()
      res = count(last.graph, last.p)
      work += src.prefixSize(last.p)
    }
    (last, res, SearchStats(last.index, last.p, src.prefixSize(last.p), work))
  }

  /** The argument checks of every top-k entry point. */
  private[repro] def requireArgs(k: Int, gamma: Int): Unit = {
    require(k >= 1, "k must be positive")
    require(gamma >= 1, "gamma must be positive")
  }
}
