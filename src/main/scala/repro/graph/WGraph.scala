package repro.graph

/** Vertex-weighted undirected graph in the paper's *weight-rank* layout.
  *
  * Vertices are identified by their **rank**: position `0` is the
  * highest-weight vertex, `n-1` the lowest (Section 3.1: "vertices are
  * pre-sorted in decreasing order with respect to their weights"). The
  * adjacency of each vertex is pre-partitioned into
  *
  *  - `adjHi(u)` — neighbours with rank `< u` (weight above u's): the paper's
  *    `N≥(u)`, and
  *  - `adjLo(u)` — neighbours with rank `> u`: the paper's `N<(u)`,
  *
  * both sorted ascending by rank. With this layout the prefix subgraph
  * `G≥τ` induced by the top-`p` ranks contains exactly the `adjHi` edges of
  * ranks `0 until p`, so it is retrievable in time linear in its size.
  *
  * Weights may contain ties; all ordering decisions are made by rank (ties
  * broken by ascending original id at build time), matching the paper's
  * distinct-weight assumption.
  */
final class WGraph private[graph] (
    /** Number of vertices. */
    val n: Int,
    /** Weight by rank; non-increasing. */
    val weights: Array[Double],
    /** Original (external) vertex id by rank. */
    val origId: Array[Long],
    /** Higher-weight neighbours (rank < u), ascending. */
    val adjHi: Array[Array[Int]],
    /** Lower-weight neighbours (rank > u), ascending. */
    val adjLo: Array[Array[Int]],
) extends PrefixSizes {

  /** `cumSize(p)` = size (|V|+|E|) of the prefix subgraph on ranks `< p`. */
  val cumSize: Array[Long] = {
    val c = new Array[Long](n + 1)
    var p = 0
    while (p < n) { c(p + 1) = c(p) + 1 + adjHi(p).length; p += 1 }
    c
  }

  /** Total number of undirected edges. */
  def m: Long = cumSize(n) - n

  /** size of the prefix subgraph on the top-`p` ranks. */
  def prefixSize(p: Int): Long = cumSize(p)

  /** A local graph is its own prefix. */
  def prefixes(): Int => WGraph = _ => this

  /** Degree of rank `u` within the top-`p` prefix (requires `u < p`). */
  def degIn(u: Int, p: Int): Int = adjHi(u).length + countBelow(adjLo(u), p)

  /** Number of entries `< p` in the ascending array `a`. */
  private def countBelow(a: Array[Int], p: Int): Int = {
    var lo = 0
    var hi = a.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < p) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Visit every neighbour of `u` inside the top-`p` prefix. Used off the
    * query path only: its one call of `f` would see every caller's lambda
    * class, so the query path's loops are written out (see [[Peeler]]).
    */
  def foreachNeighborIn(u: Int, p: Int)(f: Int => Unit): Unit = {
    val h = adjHi(u)
    var i = 0
    while (i < h.length) { f(h(i)); i += 1 }
    val l = adjLo(u)
    i = 0
    while (i < l.length && l(i) < p) { f(l(i)); i += 1 }
  }

  /** The [[RankTable]] over this graph's ranks, built on the first [[rankOf]]. */
  private lazy val ranks = new RankTable(origId, weights)

  /** The rank of external id `id`; throws `NoSuchElementException` for an id
    * the graph does not hold. Used by tests and reporting.
    */
  def rankOf(id: Long): Int = ranks.rankOf(id)
}

object WGraph {

  /** Build from `(id, weight)` pairs and an undirected edge list over external
    * ids, ranked by one [[RankTable]] (so 0.0 ranks above −0.0, and weight
    * ties go to the smaller id). Self-loops are dropped and parallel edges
    * deduplicated. Rejects NaN weights, duplicate ids and edges with an
    * endpoint missing from the weights.
    */
  def apply(weightsById: Seq[(Long, Double)], edges: Iterable[(Long, Long)]): WGraph = {
    val table = RankTable(weightsById.map(_._1).toArray, weightsById.map(_._2).toArray)
    val packed = new Array[Long](edges.size)
    var m = 0
    for ((a, b) <- edges if a != b) { packed(m) = table.pack(a, b); m += 1 }
    fromPacked(table.weights, table.ids, packed, m)
  }

  /** The edge between ranks `a != b` as one long, `maxRank << 32 | minRank`:
    * ascending order is the paper's edge-weight order (§3.1 Remark), with the
    * edges of each `adjHi` row contiguous and ascending.
    */
  def pack(a: Int, b: Int): Long = math.max(a, b).toLong << 32 | math.min(a, b)

  /** Build from the [[pack]]ed edges `packed[0, m)` over ranks
    * `< weights.length`, in any order, repeats allowed. Sorts the range in
    * place and compacts it to its distinct edges at the front; the range
    * still holds the same set of edges.
    */
  def fromPacked(weights: Array[Double], origId: Array[Long],
                 packed: Array[Long], m: Int): WGraph = {
    val n = weights.length
    java.util.Arrays.sort(packed, 0, m)
    var unique = 0
    var i = 0
    while (i < m) {
      if (unique == 0 || packed(unique - 1) != packed(i)) { packed(unique) = packed(i); unique += 1 }
      i += 1
    }
    // In (maxRank, minRank) order each adjHi row is filled from its run, and
    // each adjLo row receives its maxRanks ascending: no row needs a sort.
    val hiCnt = new Array[Int](n)
    val loCnt = new Array[Int](n)
    i = 0
    while (i < unique) { hiCnt((packed(i) >>> 32).toInt) += 1; loCnt(packed(i).toInt) += 1; i += 1 }
    val adjHi = Array.tabulate(n)(u => new Array[Int](hiCnt(u)))
    val adjLo = Array.tabulate(n)(u => new Array[Int](loCnt(u)))
    java.util.Arrays.fill(hiCnt, 0)
    java.util.Arrays.fill(loCnt, 0)
    i = 0
    while (i < unique) {
      val hi = (packed(i) >>> 32).toInt
      val lo = packed(i).toInt
      adjHi(hi)(hiCnt(hi)) = lo; hiCnt(hi) += 1
      adjLo(lo)(loCnt(lo)) = hi; loCnt(lo) += 1
      i += 1
    }
    new WGraph(n, weights, origId, adjHi, adjLo)
  }
}
