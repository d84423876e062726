package repro

import repro.graph.WGraph

/** Hand-built graphs with known community structure, used for exact-value
  * tests (the paper's own figures don't list their edge sets, so we mirror
  * their structure: two 4-cliques, pendant extensions, a low-weight bridge).
  */
object Fixtures {

  /** The "paper-like" graph.
    *
    * Weights: id0=20 id1=19 id2=18 id3=17 | id5=16 id6=15 id7=14 id8=13 |
    *          id4=12 id9=11 id10=10 id11=5.
    *
    * Structure: clique A = {0,1,2,3}; vertex 4 adjacent to {0,1,2};
    * clique B = {5,6,7,8}; vertex 9 adjacent to {5,6,7}; bridge 10 adjacent
    * to {0,1,5,6}; pendant 11 adjacent to {0}.
    *
    * For γ = 3 the influential γ-communities are (influence: members):
    *   17: {0,1,2,3}   13: {5,6,7,8}   12: {0,1,2,3,4}
    *   11: {5,6,7,8,9} 10: {0,...,10}
    * NC communities: 17 and 13. For γ = 4 (truss) the influential 4-truss
    * communities are 17:{0..3}, 13:{5..8}, 12:{0..4}, 11:{5..9}.
    */
  lazy val paperLike: WGraph = {
    val weights = Seq[(Long, Double)](
      0L -> 20, 1L -> 19, 2L -> 18, 3L -> 17,
      5L -> 16, 6L -> 15, 7L -> 14, 8L -> 13,
      4L -> 12, 9L -> 11, 10L -> 10, 11L -> 5,
    )
    def clique(ids: Seq[Long]): Seq[(Long, Long)] =
      for (i <- ids.indices; j <- i + 1 until ids.size) yield (ids(i), ids(j))
    val edges = clique(Seq(0L, 1L, 2L, 3L)) ++ clique(Seq(5L, 6L, 7L, 8L)) ++
      Seq[(Long, Long)](
        (4L, 0L), (4L, 1L), (4L, 2L),
        (9L, 5L), (9L, 6L), (9L, 7L),
        (10L, 0L), (10L, 1L), (10L, 5L), (10L, 6L),
        (11L, 0L),
      )
    WGraph(weights, edges)
  }

  /** Expected top-5 (influence → member ids) for γ = 3 on [[paperLike]]. */
  val paperLikeTop: Seq[(Double, Set[Long])] = Seq(
    17.0 -> Set(0L, 1L, 2L, 3L),
    13.0 -> Set(5L, 6L, 7L, 8L),
    12.0 -> Set(0L, 1L, 2L, 3L, 4L),
    11.0 -> Set(5L, 6L, 7L, 8L, 9L),
    10.0 -> Set(0L, 1L, 2L, 3L, 4L, 5L, 6L, 7L, 8L, 9L, 10L),
  )

  /** Expected NC communities for γ = 3. */
  val paperLikeNc: Seq[(Double, Set[Long])] = Seq(
    17.0 -> Set(0L, 1L, 2L, 3L),
    13.0 -> Set(5L, 6L, 7L, 8L),
  )

  /** Expected influential 4-truss communities (decreasing influence). */
  val paperLikeTruss4: Seq[(Double, Set[Long])] = Seq(
    17.0 -> Set(0L, 1L, 2L, 3L),
    13.0 -> Set(5L, 6L, 7L, 8L),
    12.0 -> Set(0L, 1L, 2L, 3L, 4L),
    11.0 -> Set(5L, 6L, 7L, 8L, 9L),
  )

  /** A tiny triangle-free graph: no 3-communities at all. */
  lazy val star: WGraph = WGraph(
    (0L to 5L).map(i => i -> (10.0 - i)),
    (1L to 5L).map(i => (0L, i)),
  )

  /** `cliques` disjoint `size`-cliques of high weight, bridged by one hub of
    * the lowest weight (id `cliques * size`) adjacent to three members of each.
    * Clique j holds the ids `j, j + cliques, j + 2·cliques, …`, so the member
    * ids of different cliques interleave. For γ = 3 (core) or 4 (truss) the
    * hub's community is the whole graph, a parent with one child community
    * per clique.
    */
  def cliquesWithHub(cliques: Int, size: Int): WGraph = {
    val hub = (cliques * size).toLong
    val members = (0 until cliques).map(j => (0 until size).map(i => (i * cliques + j).toLong))
    WGraph(
      (0L until hub).map(v => v -> (100.0 + v)) :+ (hub -> 1.0),
      members.flatMap(ids => for (a <- ids; b <- ids if a < b) yield (a, b)) ++
        members.flatMap(ids => ids.take(3).map(hub -> _)),
    )
  }

  /** A nested chain: vertex v (weight n − v) is linked to its `back`
    * predecessors, so for γ ≤ `back` every vertex from rank γ on is a keynode
    * whose community holds all higher-weight vertices: a forest of depth
    * about n.
    */
  def nestedChain(n: Int, back: Int): WGraph = WGraph(
    (0L until n.toLong).map(v => v -> (n - v).toDouble),
    for (v <- 1L until n.toLong; d <- 1L to back.toLong if v >= d) yield (v - d, v),
  )

  /** Rank `u`'s row of `g.hi`: its higher-weight neighbours N≥(u), ascending. */
  def hiRow(g: WGraph, u: Int): Array[Int] = java.util.Arrays.copyOfRange(g.hi, g.hiOff(u), g.hiOff(u + 1))

  /** Rank `u`'s row of `g.lo`: its lower-weight neighbours N<(u), ascending. */
  def loRow(g: WGraph, u: Int): Array[Int] = java.util.Arrays.copyOfRange(g.lo, g.loOff(u), g.loOff(u + 1))
}
