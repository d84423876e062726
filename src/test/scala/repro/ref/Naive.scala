package repro.ref

import repro.Fixtures
import repro.core.Community
import repro.graph.{GraphOps, WGraph}

import scala.collection.mutable

/** Brute-force reference implementations used as *independent* test oracles.
  *
  * Everything here is derived directly from Definitions 2.2/3.1/5.1 rather
  * than from the paper's algorithms:
  *
  *  - u is a keynode  ⇔  u survives in the γ-core of `G≥ω(u)` (a subgraph
  *    with influence ω(u) and min degree γ exists iff that core contains u);
  *  - IC(u) is the connected component of u in that γ-core (maximality and
  *    connectivity by construction);
  *  - the truss analogues replace γ-core with γ-truss.
  *
  * Complexities are O(n·m) and worse — only for small test graphs.
  */
object Naive {

  /** Ranks of all keynodes (increasing weight order, matching CountIC). */
  def keynodes(g: WGraph, gamma: Int): Seq[Int] = {
    // prefix for rank u is the top-(u+1) ranks: exactly G≥ω(u)
    (g.n - 1 to 0 by -1).filter { u =>
      GraphOps.gammaCore(g, gamma, u + 1).contains(u)
    }
  }

  /** IC(u): component of u in the γ-core of `G≥ω(u)` (member ranks, sorted).
    * Returns None if u is not a keynode.
    */
  def communityOf(g: WGraph, gamma: Int, u: Int): Option[Array[Int]] = {
    val p = u + 1
    val core = GraphOps.gammaCore(g, gamma, p)
    if (!core.contains(u)) None
    else {
      val comp = GraphOps.components(g, core, p)
      val cid = comp(u)
      Some(core.filter(comp(_) == cid).sorted)
    }
  }

  /** Top-k communities in decreasing influence order (materialised). */
  def topK(g: WGraph, k: Int, gamma: Int): Seq[Community] =
    keynodes(g, gamma).takeRight(k).reverse.map { u =>
      val members = communityOf(g, gamma, u).get.map(g.origId)
      java.util.Arrays.sort(members)
      Community(g.origId(u), g.weights(u), members)
    }

  /** Non-containment keynodes: IC(u) contains no other community strictly
    * inside it. IC(u') ⊂ IC(u) holds iff u' ∈ IC(u) \ {u} is a keynode
    * (every keynode inside IC(u) other than u roots a strictly smaller
    * community with a higher influence value).
    */
  def ncKeynodes(g: WGraph, gamma: Int): Seq[Int] = {
    val keys = keynodes(g, gamma).toSet
    keys.toSeq.sorted.reverse.filter { u =>
      val members = communityOf(g, gamma, u).get
      !members.exists(v => v != u && keys.contains(v))
    }.sortBy(u => -u) // increasing weight order = decreasing rank
  }

  /** Top-k non-containment communities, decreasing influence. */
  def topKNonContainment(g: WGraph, k: Int, gamma: Int): Seq[Community] =
    ncKeynodes(g, gamma).takeRight(k).reverse.map { u =>
      val members = communityOf(g, gamma, u).get.map(g.origId)
      java.util.Arrays.sort(members)
      Community(g.origId(u), g.weights(u), members)
    }

  // ---------------------------------------------------------------- truss --

  /** Edges (canonical lo<hi rank pairs) of the γ-truss of the top-`p` prefix:
    * iteratively delete edges in fewer than γ−2 triangles.
    */
  def gammaTrussEdges(g: WGraph, gamma: Int, p: Int): Set[(Int, Int)] = {
    var edges = mutable.Set.empty[(Int, Int)]
    for (u <- 0 until p; v <- Fixtures.hiRow(g, u)) edges += ((math.min(u, v), math.max(u, v)))
    var changed = true
    while (changed) {
      val adj = mutable.Map.empty[Int, mutable.Set[Int]]
      for ((a, b) <- edges) {
        adj.getOrElseUpdate(a, mutable.Set.empty) += b
        adj.getOrElseUpdate(b, mutable.Set.empty) += a
      }
      val keep = edges.filter { case (a, b) =>
        (adj(a) & adj(b)).size >= gamma - 2
      }
      changed = keep.size != edges.size
      edges = keep
    }
    edges.toSet
  }

  /** Truss keynode ranks (increasing weight order): u has an edge in the
    * γ-truss of `G≥ω(u)`.
    */
  def trussKeynodes(g: WGraph, gamma: Int): Seq[Int] =
    (g.n - 1 to 0 by -1).filter { u =>
      gammaTrussEdges(g, gamma, u + 1).exists { case (a, b) => a == u || b == u }
    }

  /** Truss community of u: vertices of the edge-connected component of u in
    * the γ-truss of `G≥ω(u)`. None if u is not a truss keynode.
    */
  def trussCommunityOf(g: WGraph, gamma: Int, u: Int): Option[Array[Int]] = {
    val edges = gammaTrussEdges(g, gamma, u + 1)
    if (!edges.exists { case (a, b) => a == u || b == u }) None
    else {
      val adj = mutable.Map.empty[Int, mutable.Set[Int]]
      for ((a, b) <- edges) {
        adj.getOrElseUpdate(a, mutable.Set.empty) += b
        adj.getOrElseUpdate(b, mutable.Set.empty) += a
      }
      val seen = mutable.Set(u)
      val stack = mutable.Stack(u)
      while (stack.nonEmpty) {
        val v = stack.pop()
        for (w <- adj.getOrElse(v, mutable.Set.empty) if seen.add(w)) stack.push(w)
      }
      Some(seen.toArray.sorted)
    }
  }

  /** Top-k influential γ-truss communities, decreasing influence. */
  def topKTruss(g: WGraph, k: Int, gamma: Int): Seq[Community] =
    trussKeynodes(g, gamma).takeRight(k).reverse.map { u =>
      val members = trussCommunityOf(g, gamma, u).get.map(g.origId)
      java.util.Arrays.sort(members)
      Community(g.origId(u), g.weights(u), members)
    }
}
