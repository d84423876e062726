package repro

import repro.baseline.{Backward, EdgeStore, Forward, LocalSearchOA, LocalSearchSE, OnlineAll}
import repro.core.{Community, LocalSearch, LocalSearchP, Truss}
import repro.gen.LocalGen
import repro.graph.WGraph
import repro.ref.Naive
import repro.spark.{DistLocalSearch, SparkGraphStore}

/** Every entry point that enumerates through the community forest, and the
  * global baselines Forward and OnlineAll, against the definition-level
  * answers of [[Naive]] and against each other, on generated graphs and on
  * adversarial shapes.
  */
class DifferentialSpec extends SparkSpec {

  private def asPairs(cs: Seq[Community]) = cs.map(c => (c.influence, c.members.toSeq))

  private val graphs: Seq[(String, WGraph)] = {
    val base = LocalGen.localRandom(40, 6.0, 9)
    Seq(
      "empty" -> WGraph(Nil, Nil),
      "single vertex" -> WGraph(Seq(7L -> 1.0), Nil),
      "star" -> Fixtures.star,
      "clique" -> WGraph((0L until 8L).map(i => i -> (10.0 - i)),
                         for (i <- 0L until 8L; j <- i + 1 until 8L) yield (i, j)),
      "nested chain" -> Fixtures.nestedChain(300, 3),
      "all-equal weights" -> WGraph(base.origId.toSeq.map(_ -> 1.0),
        for (u <- 0 until base.n; v <- Fixtures.hiRow(base, u)) yield (base.origId(u), base.origId(v))),
      "paperLike" -> Fixtures.paperLike,
      // Each vertex linked to its 4 nearest predecessors, weights shuffled.
      "id-local band" -> WGraph(
        new scala.util.Random(5).shuffle((0L until 60L).toVector).zipWithIndex.map { case (v, w) => v -> w.toDouble },
        for (v <- 1L until 60L; d <- 1L to math.min(v, 4L)) yield (v - d, v)),
    ) ++ (1 to 3).map(s => s"random seed=$s" -> LocalGen.localRandom(40, 5.0, s)) ++
      (1 to 2).map(s => s"power-law seed=$s" -> LocalGen.localPowerLaw(80, 5, s))
  }

  private val ks = Seq(1, 3, Int.MaxValue)

  for ((name, g) <- graphs) test(s"γ-core entry points agree with Naive and each other ($name)") {
    for (gamma <- Seq(2, 3)) {
      val all = asPairs(Naive.topK(g, Int.MaxValue, gamma))
      val allNc = asPairs(Naive.topKNonContainment(g, Int.MaxValue, gamma))
      for (k <- ks) {
        val clue = s"γ=$gamma k=$k"
        val expected = all.take(k)
        val (ls, lsStats) = LocalSearch.topK(g, k, gamma)
        val (oa, oaStats) = LocalSearchOA.topK(g, k, gamma)
        assert(asPairs(ls) == expected, s"LocalSearch $clue")
        assert(asPairs(oa) == expected && oaStats == lsStats, s"LocalSearch-OA $clue")
        assert(asPairs(Backward.topK(g, k, gamma)._1) == expected, s"Backward $clue")
        assert(asPairs(LocalSearchSE.topK(g, EdgeStore.fromGraph(g), k, gamma).communities) == expected,
               s"LocalSearch-SE $clue")
        assert(asPairs(LocalSearchP.topK(g, k, gamma)) == expected, s"LocalSearch-P $clue")
        assert(asPairs(LocalSearch.topKNonContainment(g, k, gamma)._1) == allNc.take(k), s"NC $clue")
        assert(asPairs(LocalSearchP.topK(g, k, gamma, ncOnly = true)) == allNc.take(k),
               s"LocalSearch-P NC $clue")
        assert(asPairs(Forward.topK(g, k, gamma)) == expected, s"Forward $clue")
        assert(asPairs(Forward.topKNonContainment(g, k, gamma)) == allNc.take(k), s"Forward-NC $clue")
        assert(asPairs(OnlineAll.topK(g, k, gamma)._1) == expected, s"OnlineAll $clue")
      }
      val reported = LocalSearchP.iterator(g, gamma).toVector
      assert(reported.map(_.size) == all.map(_._2.length), s"LocalSearch-P sizes γ=$gamma")
    }
  }

  for ((name, g) <- graphs) test(s"γ-truss entry points agree with Naive and each other ($name)") {
    for (gamma <- Seq(3, 4)) {
      val all = asPairs(Naive.topKTruss(g, Int.MaxValue, gamma))
      for (k <- ks) {
        val clue = s"γ=$gamma k=$k"
        assert(asPairs(Truss.globalSearchTopK(g, k, gamma)) == all.take(k), s"GlobalSearch-Truss $clue")
        assert(asPairs(Truss.localSearchTopK(g, k, gamma)._1) == all.take(k), s"LocalSearch-Truss $clue")
      }
    }
  }

  test("DistLocalSearch agrees with Naive and LocalSearch on a small store") {
    import spark.implicits._
    val g = LocalGen.localPowerLaw(80, 5, 3)
    val edges = (for (u <- 0 until g.n; v <- Fixtures.hiRow(g, u)) yield (g.origId(u), g.origId(v))).toDF("src", "dst")
    val weights = g.origId.indices.map(r => (g.origId(r), g.weights(r))).toDF("id", "weight")
    val store = SparkGraphStore.build(spark, edges, weights)
    try for (gamma <- Seq(2, 3); k <- ks) {
      val (dist, distStats) = DistLocalSearch.topK(store, k, gamma)
      val (ls, lsStats) = LocalSearch.topK(g, k, gamma)
      assert(asPairs(dist) == asPairs(Naive.topK(g, k, gamma)), s"γ=$gamma k=$k")
      assert(asPairs(dist) == asPairs(ls) && distStats == lsStats, s"γ=$gamma k=$k")
    } finally store.unpersist()
  }
}
