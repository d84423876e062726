package repro.graph

/** Vertex-weighted undirected graph in the paper's *weight-rank* layout.
  *
  * Vertices are identified by their **rank**: position `0` is the
  * highest-weight vertex, `n-1` the lowest (Section 3.1: "vertices are
  * pre-sorted in decreasing order with respect to their weights"). The
  * adjacency is two compressed sparse rows (CSR) over ranks, each row
  * ascending:
  *
  *  - `hi[hiOff(u), hiOff(u + 1))` — neighbours with rank `< u` (weight above
  *    u's): the paper's `N≥(u)`, and
  *  - `lo[loOff(u), loOff(u + 1))` — neighbours with rank `> u`: `N<(u)`,
  *    the transpose of `hi`.
  *
  * Each edge sits once in `hi`, in its maxRank's row, so `hi` is the edge
  * list in the paper's edge-weight order (§3.1 Remark): the prefix `G≥τ` of
  * the top-`p` ranks has the edges `hi[0, hiOff(p))`.
  *
  * Weights may contain ties; all ordering decisions are made by rank (ties
  * broken by ascending original id at build time), matching the paper's
  * distinct-weight assumption.
  */
final class WGraph private[graph] (
    /** Weight by rank; non-increasing. */
    val weights: Array[Double],
    /** Original (external) vertex id by rank. */
    val origId: Array[Long],
    /** N≥ rows: rank u's is `hi[hiOff(u), hiOff(u + 1))`; `hiOff` has n + 1 entries. */
    val hiOff: Array[Int], val hi: Array[Int],
    /** N< rows: rank u's is `lo[loOff(u), loOff(u + 1))`; `loOff` has n + 1 entries. */
    val loOff: Array[Int], val lo: Array[Int],
) extends PrefixSizes {

  /** Number of vertices. */
  val n: Int = weights.length

  /** Total number of undirected edges. */
  def m: Long = hiOff(n)

  /** size (|V|+|E|) of the prefix subgraph on the top-`p` ranks. */
  def prefixSize(p: Int): Long = p.toLong + hiOff(p)

  /** A local graph is its own prefix. */
  def prefixes(): Int => WGraph = _ => this

  /** Degree of rank `u` in the whole graph. */
  def degree(u: Int): Int = hiOff(u + 1) - hiOff(u) + loOff(u + 1) - loOff(u)

  /** Degree of rank `u` within the top-`p` prefix (requires `u < p`). */
  def degIn(u: Int, p: Int): Int = {
    var a = loOff(u) // binary search for the first entry ≥ p of u's lo row
    var b = loOff(u + 1)
    while (a < b) { val mid = (a + b) >>> 1; if (lo(mid) < p) a = mid + 1 else b = mid }
    degree(u) - (loOff(u + 1) - a)
  }

  /** Visit every neighbour of `u` inside the top-`p` prefix. Used off the
    * query path only: its one call of `f` would see every caller's lambda
    * class, so the query path's loops are written out (see [[Peeler]]).
    */
  def foreachNeighborIn(u: Int, p: Int)(f: Int => Unit): Unit = {
    var i = hiOff(u)
    val hEnd = hiOff(u + 1)
    while (i < hEnd) { f(hi(i)); i += 1 }
    i = loOff(u)
    val lEnd = loOff(u + 1)
    while (i < lEnd && lo(i) < p) { f(lo(i)); i += 1 }
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
    * edges of each `hi` row contiguous and ascending.
    */
  def pack(a: Int, b: Int): Long = math.max(a, b).toLong << 32 | math.min(a, b)

  /** Build from the [[pack]]ed edges `packed[0, m)` over ranks
    * `< weights.length`, in any order, repeats allowed. Sorts the range in
    * place and compacts it to its distinct edges at the front; the range
    * still holds the same set of edges. Rejects a self-loop or a rank
    * outside `[0, weights.length)`.
    */
  def fromPacked(weights: Array[Double], origId: Array[Long],
                 packed: Array[Long], m: Int): WGraph = {
    val n = weights.length
    java.util.Arrays.sort(packed, 0, m)
    // Row lengths are counted while compacting, then summed into offsets.
    val hiOff = new Array[Int](n + 1)
    val loOff = new Array[Int](n + 1)
    var unique = 0
    var i = 0
    while (i < m) {
      val e = packed(i)
      if (unique == 0 || packed(unique - 1) != e) {
        val a = (e >>> 32).toInt
        val b = e.toInt
        if (b < 0 || b >= a || a >= n)
          throw new IllegalArgumentException(s"packed edge ($a,$b) needs ranks 0 <= minRank < maxRank < $n")
        packed(unique) = e; unique += 1
        hiOff(a + 1) += 1; loOff(b + 1) += 1
      }
      i += 1
    }
    var u = 0
    while (u < n) { hiOff(u + 1) += hiOff(u); loOff(u + 1) += loOff(u); u += 1 }
    // In (maxRank, minRank) order, hi is the minRanks in sequence and the
    // transpose fills each lo row ascending: no row needs a sort.
    val hi = new Array[Int](unique)
    val lo = new Array[Int](unique)
    val next = java.util.Arrays.copyOf(loOff, n)
    i = 0
    while (i < unique) {
      val b = packed(i).toInt
      hi(i) = b
      lo(next(b)) = (packed(i) >>> 32).toInt; next(b) += 1
      i += 1
    }
    new WGraph(weights, origId, hiOff, hi, loOff, lo)
  }
}
