package repro.spark

import org.apache.spark.SparkEnv
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import repro.{Fixtures, Oracle, SparkSpec}
import repro.core.LocalSearch
import repro.gen.GraphGen
import repro.graph.{GraphOps, WGraph}
import repro.ref.Naive

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._

class SparkLayerSpec extends SparkSpec {

  import spark.implicits._

  private lazy val edges = GraphGen.rmat(spark, scale = 9, edgeFactor = 4.0, seed = 5L).cache()
  private lazy val weights = PageRankWeights.compute(spark, edges).cache()
  private lazy val store = SparkGraphStore.build(spark, edges, weights)
  private lazy val local = store.toLocal

  // ---------------------------------------------------------------- generator

  test("rmat is deterministic in its seed") {
    val a = GraphGen.rmat(spark, 8, 3.0, 1L).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val b = GraphGen.rmat(spark, 8, 3.0, 1L).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val c = GraphGen.rmat(spark, 8, 3.0, 2L).collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(a == b && a != c)
  }

  test("rmat edges are canonical (src < dst) with no duplicates [oracle]") {
    val dup = edges.groupBy("src", "dst").count().filter($"count" > 1)
      .agg(count(lit(1)).as("dups"))
    Oracle.assertEquivalent(dup,
      """SELECT count(*) AS dups FROM (
        |  SELECT src, dst, count(*) AS c FROM edges GROUP BY src, dst HAVING count(*) > 1
        |)""".stripMargin,
      "edges" -> edges)
    assert(edges.filter($"src" >= $"dst").isEmpty)
  }

  test("rmat degrees are skewed (power-law flavour)") {
    val degs = edges.select($"src".as("v")).unionAll(edges.select($"dst".as("v")))
      .groupBy("v").count().select(max("count"), avg("count"))
      .as[(Long, Double)].head()
    assert(degs._1 > 5 * degs._2, s"max ${degs._1} should dwarf avg ${degs._2}")
  }

  // ----------------------------------------------------------------- pagerank

  test("pagerank weights cover every endpoint and are positive") {
    val endpoints = edges.select($"src".as("id")).unionAll(edges.select($"dst".as("id"))).distinct()
    assert(weights.count() == endpoints.count())
    assert(weights.filter($"weight" <= 0).isEmpty)
  }

  test("pagerank mass is about one per vertex") {
    val (sum, n) = weights.agg(org.apache.spark.sql.functions.sum("weight"), count(lit(1)))
      .as[(Double, Long)].head()
    assert(math.abs(sum / n - 1.0) < 0.25, s"mean pagerank ${sum / n}")
  }

  test("pagerank is reproducible within a session") {
    val again = PageRankWeights.compute(spark, edges).withColumnRenamed("weight", "w2")
    val maxDiff = weights.join(again, "id")
      .agg(max(abs($"weight" - $"w2")).as("d")).as[Double].head()
    assert(maxDiff < 1e-9, s"pagerank drift $maxDiff")
  }

  test("hubs rank high: top pagerank vertex has above-average degree") {
    val topId = weights.orderBy(desc("weight")).select("id").as[Long].head()
    val degOf = edges.filter($"src" === topId || $"dst" === topId).count()
    val avgDeg = 2.0 * edges.count() / weights.count()
    assert(degOf > avgDeg)
  }

  // -------------------------------------------------------------------- store

  test("store rank assignment matches DuckDB row_number [oracle]") {
    val ranked = store.vertices.select($"id", $"rank")
    Oracle.assertEquivalent(ranked,
      """SELECT id,
        |       row_number() OVER (ORDER BY CAST(weight AS DOUBLE) DESC, CAST(id AS BIGINT)) - 1 AS rank
        |FROM weights""".stripMargin,
      "weights" -> weights)
  }

  test("store edge ranks are consistent with the vertex table [oracle]") {
    val joined = store.edges.select($"src", $"dst", $"srcRank", $"dstRank")
    Oracle.assertEquivalent(joined,
      """WITH ranked AS (
        |  SELECT id,
        |         row_number() OVER (ORDER BY CAST(weight AS DOUBLE) DESC, CAST(id AS BIGINT)) - 1 AS rank
        |  FROM weights)
        |SELECT e.src, e.dst, rs.rank AS srcRank, rd.rank AS dstRank
        |FROM edges e
        |JOIN ranked rs ON rs.id = e.src
        |JOIN ranked rd ON rd.id = e.dst""".stripMargin,
      "edges" -> edges, "weights" -> weights)
  }

  test("degree computation matches DuckDB [oracle]") {
    val degDf = edges.select($"src".as("id")).unionAll(edges.select($"dst".as("id")))
      .groupBy("id").agg(count(lit(1)).as("deg"))
    Oracle.assertEquivalent(degDf,
      """SELECT id, count(*) AS deg FROM (
        |  SELECT src AS id FROM edges UNION ALL SELECT dst AS id FROM edges
        |) GROUP BY id""".stripMargin,
      "edges" -> edges)
  }

  test("cumEdges histogram matches a per-threshold DuckDB count [oracle]") {
    for (p <- Seq(1, store.n / 4, store.n / 2, store.n)) {
      val cnt = store.edges.filter($"maxRank" < p).agg(count(lit(1)).as("edges_below"))
      Oracle.assertEquivalent(cnt,
        s"SELECT count(*) AS edges_below FROM se WHERE CAST(maxRank AS INT) < $p",
        "se" -> store.edges)
      assert(store.cumEdges(p) ==
        store.edges.filter($"maxRank" < p).count())
    }
  }

  test("store prefix sizes match the local graph") {
    assert(local.n == store.n)
    for (p <- Seq(0, 1, store.n / 3, store.n))
      assert(store.prefixSize(p) == local.prefixSize(p), s"p=$p")
  }

  test("toLocal round-trips ids, weights and edge count") {
    assert(local.m == edges.count())
    val wById = weights.as[(Long, Double)].collect().toMap
    assert((0 until local.n).forall(r => wById(local.origId(r)) == local.weights(r)))
  }

  test("store build rejects an edge whose endpoint has no weight") {
    val e = Seq((1L, 2L), (2L, 9L)).toDF("src", "dst")
    val w = Seq((1L, 1.0), (2L, 0.5)).toDF("id", "weight")
    val err = intercept[Exception](SparkGraphStore.build(spark, e, w))
    assert(err.getMessage.contains("edge (2,9) references vertex 9"), err.getMessage)
  }

  test("store build rejects a self-loop") {
    val e = Seq((1L, 2L), (2L, 2L)).toDF("src", "dst")
    val w = Seq((1L, 1.0), (2L, 0.5)).toDF("id", "weight")
    val err = intercept[Exception](SparkGraphStore.build(spark, e, w))
    assert(err.getMessage.contains("edge (2,2) is a self-loop"), err.getMessage)
  }

  test("store build rejects duplicate vertex ids") {
    val e = Seq((1L, 2L)).toDF("src", "dst")
    val w = Seq((1L, 1.0), (2L, 0.5), (1L, 0.25)).toDF("id", "weight")
    val err = intercept[IllegalArgumentException](SparkGraphStore.build(spark, e, w))
    assert(err.getMessage.contains("vertex id 1 appears twice"), err.getMessage)
  }

  test("store build rejects NaN weights") {
    val e = Seq((1L, 2L)).toDF("src", "dst")
    val w = Seq((1L, 1.0), (2L, Double.NaN)).toDF("id", "weight")
    val err = intercept[IllegalArgumentException](SparkGraphStore.build(spark, e, w))
    assert(err.getMessage.contains("vertex 2 has a NaN weight"), err.getMessage)
  }

  test("the store's edge RDD serialises small, whatever the graph's size") {
    // A fetch job's task carries the RDD: with its lineage cut in build, it
    // holds neither the input's plan nor the packing closure's id arrays.
    val bigEdges = GraphGen.rmat(spark, scale = 12, edgeFactor = 4.0, seed = 6L)
    val ids = bigEdges.select($"src".as("id")).union(bigEdges.select($"dst".as("id"))).distinct()
    val big = SparkGraphStore.build(spark, bigEdges, ids.select($"id", $"id".cast("double").as("weight")))
    try {
      assert(big.n > 4 * store.n)
      val ser = SparkEnv.get.closureSerializer.newInstance()
      for (s <- Seq(store, big)) {
        val bytes = ser.serialize(s.packed).limit()
        assert(bytes < 8192, s"n = ${s.n}: $bytes B")
      }
    } finally big.unpersist()
  }

  test("an edge listed in both directions counts once in the prefix graphs") {
    val w = Seq((1L, 3.0), (2L, 2.0), (3L, 1.0))
    val e = Seq((1L, 2L), (2L, 1L), (2L, 3L), (3L, 2L))
    val dup = SparkGraphStore.build(spark, e.toDF("src", "dst"), w.toDF("id", "weight"))
    try {
      assert(dup.toLocal.m == 2)
      val (dist, _) = DistLocalSearch.topK(dup, 1, 2)
      val (loc, _) = LocalSearch.topK(WGraph(w, Seq((1L, 2L), (2L, 3L))), 1, 2)
      assert(dist.isEmpty && loc.isEmpty)
    } finally dup.unpersist()
  }

  test("the store and WGraph.apply rank alike: 0.0 above -0.0, ties by id") {
    val zeros = Seq((1L, -0.0), (2L, 0.0), (3L, 1.0))
    assert(WGraph(zeros, Nil).origId.toSeq == Seq(3L, 2L, 1L))
    // Random tables over negative and positive ids, with repeated and negative weights.
    val rnd = new scala.util.Random(17)
    val tables = (zeros, Seq((1L, 2L), (2L, 3L), (1L, 3L))) +: Seq.fill(3) {
      val ids = rnd.shuffle((-20L to 20L).toVector).take(30)
      val w = ids.map(_ -> Seq(-2.5, -1.0, -0.0, 0.0, 0.75, 3.0)(rnd.nextInt(6)))
      (w, for (a <- ids; b <- ids if a < b && rnd.nextDouble() < 0.3) yield (a, b))
    }
    for (((w, e), i) <- tables.zipWithIndex) {
      val s = SparkGraphStore.build(spark, e.toDF("src", "dst"), w.toDF("id", "weight"))
      try {
        val g = WGraph(w, e)
        assert(s.toLocal.origId.toSeq == g.origId.toSeq, s"table $i")
        if (i == 1) {
          val (dist, _) = DistLocalSearch.topK(s, 5, 3)
          val (loc, _) = LocalSearch.topK(g, 5, 3)
          assert(loc.nonEmpty)
          assert(dist.map(c => (c.keyId, c.members.toSeq)) == loc.map(c => (c.keyId, c.members.toSeq)))
        }
      } finally s.unpersist()
    }
  }

  // ------------------------------------------------------------------- k-core

  test("SparkKCore matches the local γ-core") {
    for (gamma <- Seq(2, 4)) {
      val distributed = SparkKCore.coreVertices(edges, gamma).as[Long].collect().toSet
      val localCore = GraphOps.gammaCore(local, gamma, local.n).map(local.origId).toSet
      assert(distributed == localCore, s"γ=$gamma")
    }
  }

  test("SparkCC component count matches a local union-find") {
    val cnt = SparkCC.componentCount(spark, edges)
    val ranks = (0 until local.n).filter(u => Fixtures.hiRow(local, u).nonEmpty || Fixtures.loRow(local, u).nonEmpty)
    val comp = GraphOps.components(local, ranks.toArray, local.n)
    val localCnt = comp.filter(_ >= 0).distinct.length
    assert(cnt == localCnt)
  }

  test("per-component minimum weight matches DuckDB [oracle]") {
    val comps = SparkCC.components(spark, edges)
    val minW = comps.join(weights, "id").groupBy("component")
      .agg(min("weight").as("min_weight"))
    Oracle.assertEquivalent(minW,
      """SELECT component, min(CAST(weight AS DOUBLE)) AS min_weight
        |FROM comps JOIN weights USING (id) GROUP BY component""".stripMargin,
      "comps" -> comps, "weights" -> weights)
  }

  // --------------------------------------------------------- DistLocalSearch

  /** (k, γ) pairs for DistLocalSearch; some need more than one round. */
  private val searchPairs = Seq((1, 4), (5, 4), (10, 4), (40, 4), (100, 4), (10, 8), (30, 8))

  test("DistLocalSearch equals local LocalSearch") {
    val rounds = for ((k, gamma) <- searchPairs) yield {
      val (dist, distStats) = DistLocalSearch.topK(store, k, gamma)
      val (loc, locStats) = LocalSearch.topK(local, k, gamma)
      assert(dist.map(c => (c.influence, c.members.toSet)) ==
             loc.map(c => (c.influence, c.members.toSet)), s"k=$k γ=$gamma")
      assert(distStats == locStats, s"k=$k γ=$gamma")
      distStats.rounds
    }
    assert(rounds.max >= 2, s"rounds per pair: ${searchPairs.zip(rounds)}")
  }

  test("collectPrefix equals the top-p prefix of toLocal") {
    for (p <- Seq(0, 1, store.n / 3, store.n)) {
      val g = store.collectPrefix(p)
      assert(g.n == p)
      assert(g.weights.toSeq == local.weights.take(p).toSeq, s"p=$p")
      assert(g.origId.toSeq == local.origId.take(p).toSeq, s"p=$p")
      assert((0 until p).forall(u => Fixtures.hiRow(g, u).sameElements(Fixtures.hiRow(local, u))), s"p=$p")
    }
  }

  test("DistLocalSearch runs one described job per round in the caller's job group") {
    val (k, gamma) = searchPairs.maxBy { case (k, g) => LocalSearch.topK(local, k, g)._2.rounds }
    val sc = spark.sparkContext
    assert(store.n > 0) // builds the lazy store outside the group under test
    val descriptions = new ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (e.properties.getProperty("spark.jobGroup.id") == "dls-rounds")
          descriptions.add(e.properties.getProperty("spark.job.description"))
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("dls-rounds", "caller")
      val (_, stats) = DistLocalSearch.topK(store, k, gamma)
      assert(sc.getLocalProperty("spark.job.description") == "caller")
      // The listener bus is internal to Spark, so it is drained by reflection.
      val bus = classOf[org.apache.spark.SparkContext].getMethod("listenerBus").invoke(sc)
      bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
      val seen = descriptions.asScala.toSeq
      assert(stats.rounds >= 2 && seen.length == stats.rounds, s"rounds=${stats.rounds} jobs=$seen")
      seen.zipWithIndex.foreach { case (d, i) =>
        assert(d.startsWith(s"DistLocalSearch k=$k γ=$gamma round ${i + 1} p="), d)
      }
      assert(seen.last.endsWith(s"p=${stats.finalPrefix}"))
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }

  test("DistLocalSearch rejects γ < 1 and δ ≤ 1 or NaN like LocalSearch") {
    for (gamma <- Seq(0, -1))
      intercept[IllegalArgumentException](DistLocalSearch.topK(store, 1, gamma))
    for (delta <- Seq(1.0, 0.5, Double.NaN)) {
      val dist = intercept[IllegalArgumentException](DistLocalSearch.topK(store, 1, 4, delta))
      val loc = intercept[IllegalArgumentException](LocalSearch.topK(local, 1, 4, delta))
      assert(dist.getMessage == loc.getMessage, s"δ=$delta")
    }
  }

  test("DistLocalSearch with k = Int.MaxValue returns every community") {
    val (all, stats) = DistLocalSearch.topK(store, Int.MaxValue, 4)
    assert(all.map(c => (c.influence, c.members.toSet)) ==
           Naive.topK(local, Int.MaxValue, 4).map(c => (c.influence, c.members.toSet)))
    assert(stats.rounds == 1 && stats.finalPrefix == store.n)
  }

  test("DistLocalSearch accesses a strict subgraph on a local query") {
    val (found, stats) = DistLocalSearch.topK(store, 1, 2)
    assert(found.nonEmpty)
    assert(stats.accessedSize < store.size)
  }
}
