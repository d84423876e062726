package icbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.gen.GraphGen
import repro.graph.WGraph
import repro.spark.{PageRankWeights, SparkGraphStore}

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}
import scala.collection.immutable.ArraySeq
import scala.jdk.CollectionConverters._

/** A metric as printed: value and unit. */
final case class Metric(value: Double, unit: String)

/** Entry point, in two modes.
  *
  *  - `--workload W --seed N --fork J --seconds S --trace 0|1 --config F
  *    --work-dir D --out O`: fork J of the run. Sets up the workload's graph,
  *    measures it and writes a [[ForkResult]] to O.
  *  - `--report O1,O2,... --trace 0|1`: reads the forks' results and prints,
  *    as the last line of stdout, `{"correct", "attempted", "failed",
  *    "metrics"}`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    val trace = opt("trace") == "1"
    opts.get("report") match {
      case Some(files) =>
        val forks = files.split(",").toSeq.map(f => ForkResult.read(Paths.get(f)))
        val attempted = forks.map(_.attempted).sum
        val failed = forks.map(_.failed).sum
        System.err.println(s"[icbench] failed_frac = ${Stats.failedFrac(attempted, failed)} ($failed of $attempted)")
        val body = Report.metrics(forks, trace).map { case (name, m) =>
          s""""$name": {"value": ${Json.num(m.value)}, "unit": "${m.unit}"}"""
        }.mkString(", ")
        println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
        sys.exit(if (failed == 0) 0 else 1)
      case None =>
        val workloads = Config.load(Paths.get(opt("config")))
        val wl = workloads.getOrElse(opt("workload"), {
          System.err.println(s"unknown workload ${opt("workload")}; known: ${workloads.keys.toSeq.sorted.mkString(", ")}")
          sys.exit(2)
        })
        val bench = new Bench(wl, opt("seed").toLong, opt("fork").toInt, opt("seconds").toInt, trace,
                              Paths.get(opt("work-dir")))
        val result = try bench.execute() finally bench.close()
        ForkResult.write(Paths.get(opt("out")), result)
    }
  }
}

object Json {
  def num(x: Double): String =
    if (x.isNaN || x.isInfinite) throw new IllegalStateException(s"non-finite metric $x")
    else java.lang.Double.toString(x)
}

/** Fork `fork` of a run of workload `wl` for `seed`, in this JVM. */
final class Bench(wl: Workload, seed: Long, fork: Int, seconds: Int, trace: Boolean, workDir: Path) {

  private def log(msg: String): Unit = System.err.println(s"[icbench ${wl.name} fork $fork] $msg")
  private def secs(ns: Long): Double = ns / 1e9
  private def ms(ns: Long): Double = ns / 1e6
  private def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  private val spark: Option[SparkSession] =
    if (wl.isSpark) Some(SparkSide.session(workDir)) else None
  private val jobs = new JobCounter
  spark.foreach(_.sparkContext.addSparkListener(jobs))

  def close(): Unit = spark.foreach(_.stop())

  /** The inputs of `WGraph.apply` for the workload's graph. The
    * generator's temporaries are out of scope on return, so the heap
    * readings around the set-up see only these inputs.
    */
  private def localInputs(): (Seq[(Long, Double)], Seq[(Long, Long)]) = {
    val el = Inputs.rmat(wl.scale, Inputs.EdgeFactor, wl.graphSeed)
    val w = if (wl.weights == "pagerank") Inputs.pageRank(el) else Inputs.uniformWeights(el.n, wl.graphSeed)
    log(s"inputs: n=${el.n} m=${el.m} (${wl.weights} weights)")
    (ArraySeq.unsafeWrapArray(Array.tabulate(el.n)(i => (el.vertices(i), w(i)))),
     ArraySeq.unsafeWrapArray(Array.tabulate(el.m)(i => (el.src(i), el.dst(i)))))
  }

  /** The queried graph, the timings (s) of the timed set-ups, whole and per
    * part, and the heap (MB) the first set-up retained.
    */
  private final case class Setup(target: Target, setupS: Seq[Double], graphBuildS: Seq[Double],
                                 pagerankS: Seq[Double], storeBuildS: Seq[Double], heapMb: Double)

  /** Generate the inputs (untimed), then set the program up `setupWarmups`
    * times untimed and `setupTimed` times timed, keeping the last build. The
    * heap is read after a GC before and after the first set-up, with the
    * inputs already in memory, so the difference is what the program keeps.
    */
  private def setUp(): Setup = spark match {
    case None =>
      val (weights, edges) = localInputs()
      var g: WGraph = null
      var heapMb = 0.0
      val times = (1 to wl.setupWarmups + wl.setupTimed).map { i =>
        g = null
        val before = if (i == 1) heapAfterGcMb() else 0.0
        val t0 = System.nanoTime()
        g = WGraph(weights, edges)
        val t = secs(System.nanoTime() - t0)
        if (i == 1) heapMb = heapAfterGcMb() - before
        t
      }.drop(wl.setupWarmups)
      Setup(new LocalTarget(g), times, times, Nil, Nil, heapMb)
    case Some(s) =>
      require(wl.weights == "pagerank" && wl.forks == 1,
        "the Spark workload is one JVM on an RMAT graph weighted by PageRank")
      val edges = GraphGen.rmat(s, wl.scale, Inputs.EdgeFactor, wl.graphSeed).persist(StorageLevel.MEMORY_ONLY)
      log(s"inputs: m=${edges.count()} edges in the Spark edge table")
      var store: SparkGraphStore = null
      var heapMb = 0.0
      val parts = (1 to wl.setupWarmups + wl.setupTimed).map { i =>
        if (store != null) store.unpersist()
        val before = if (i == 1) heapAfterGcMb() else 0.0
        val t0 = System.nanoTime()
        val weights: DataFrame = PageRankWeights.compute(s, edges)
        val t1 = System.nanoTime()
        store = SparkGraphStore.build(s, edges, weights)
        val t2 = System.nanoTime()
        if (i == 1) heapMb = heapAfterGcMb() - before
        (secs(t2 - t0), secs(t1 - t0), secs(t2 - t1))
      }.drop(wl.setupWarmups)
      log(f"set-up: ${parts.map(_._1).map(x => f"$x%.2f").mkString(", ")} s after ${wl.setupWarmups} untimed")
      val t0 = System.nanoTime()
      val local = store.toLocal
      val toLocalS = secs(System.nanoTime() - t0)
      log(s"store: n=${store.n} m=${local.m}")
      Setup(new SparkTarget(store, local), parts.map(_._1), Seq(toLocalS), parts.map(_._2), parts.map(_._3),
            heapMb)
  }

  /** Heap in use (MB) once GCs stop freeing memory: one round of GCs can
    * leave garbage that the next round frees, and other threads allocate
    * between a GC and its reading, so GCs repeat until two readings are
    * within 64 KB (at most ten rounds); the lowest counts. With Spark the
    * rounds are 200 ms apart, for its cleaner to unpersist collected
    * datasets in the background.
    */
  private def heapAfterGcMb(): Double = {
    val mem = ManagementFactory.getMemoryMXBean
    def used(): Long = {
      if (spark.isDefined) Thread.sleep(200)
      System.gc(); System.gc()
      mem.getHeapMemoryUsage.getUsed
    }
    var prev = used()
    var cur = used()
    var low = math.min(prev, cur)
    var rounds = 2
    while (math.abs(cur - prev) > 64 * 1024 && rounds < 10) {
      prev = cur; cur = used(); low = math.min(low, cur); rounds += 1
    }
    low / (1024.0 * 1024.0)
  }

  private val tally = new Tally
  /** Traced passes in a `--trace 1` run: enough for per-layer means. */
  private val tracedPasses = 5

  /** One pass over the list with the entry points, untraced. Every answer is
    * checked against its reference after its timer stops.
    */
  private def pass(target: Target, refs: Reference.Answers, qs: Vector[Query]): (Long, Array[Result]) = {
    val out = new Array[Result](qs.length)
    val t0 = System.nanoTime()
    var i = 0
    while (i < qs.length) {
      val q = qs(i)
      spark.foreach(SparkSide.tag(_, s"query:${q.id}", s"${q.op} k=${q.k} gamma=${q.gamma}"))
      tally.run(s"query ${q.id} ${q.key}")(Ops.run(target, q)).foreach { r =>
        out(i) = r
        tally.check(s"query ${q.id} ${q.key}", Ops.sameAnswer(r.answer, refs(q.key)))
      }
      i += 1
    }
    (System.nanoTime() - t0, out)
  }

  private def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala
    .map(_.getCollectionTime).filter(_ >= 0).sum

  private def allocBytes: Long = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean].getCurrentThreadAllocatedBytes

  def execute(): ForkResult = {
    val setup = setUp()
    val target = setup.target
    val qs = wl.queries(seed, trace)
    val t0 = System.nanoTime()
    val refs = Reference.compute(target, qs)
    log(f"references: ${refs.size} in ${secs(System.nanoTime() - t0)}%.1f s; ${qs.length} queries per pass")

    val (warmTimes, agreed) = wl.warmup.run(() => pass(target, refs, qs)._1)
    val warm = warmTimes.length
    log(s"warm-up: $warm passes of ${warmTimes.map(t => f"${ms(t)}%.0f").mkString(", ")} ms" +
      (if (agreed) "" else s"; reached the cap of ${wl.warmup.maxPasses} before two passes agreed"))

    // Untraced measured passes; JVM counts come from the same interval.
    val passes = wl.passesFor(seconds)
    val gc0 = gcMs; val alloc0 = allocBytes
    val measured = (1 to passes).map(_ => pass(target, refs, qs))
    val perQuery = passes.toDouble * qs.length
    val jvm = Seq(
      "jvm.gc_ms_per_query" -> Metric((gcMs - gc0) / perQuery, "ms"),
      "jvm.alloc_mb_per_query" -> Metric((allocBytes - alloc0) / (1024.0 * 1024.0) / perQuery, "MB"))
    val passS = Stats.median(measured.map(m => secs(m._1)))
    log(f"measured: $passes passes, median $passS%.3f s")

    val layers =
      if (!trace) Nil
      else jvm ++ traced(target, refs, qs, measured.last._2, math.min(passes, tracedPasses))
    log(s"attempted=${tally.attempted} failed=${tally.failed}")
    tally.errors.foreach(e => log(s"error: $e"))

    val accessed = qs.indices.filter(qs(_).op == "topk").flatMap { i =>
      Option(measured.last._2(i)).flatMap(_.stats).map(_.accessedSize.toDouble / target.size)
    }
    ForkResult(tally.attempted, tally.failed,
      setup.setupS, setup.graphBuildS, setup.pagerankS, setup.storeBuildS, setup.heapMb, qs.length, passS,
      warm, !agreed,
      Map("topk" -> samples(qs, measured, "topk", _.totalNs),
          "first" -> samples(qs, measured, "progressive", _.firstNs),
          "progressive" -> samples(qs, measured, "progressive", _.totalNs)),
      accessed, layers)
  }

  /** Per-entry medians over the measured passes, for entries of `op`. */
  private def samples(qs: Vector[Query], measured: Seq[(Long, Array[Result])], op: String,
                      f: Result => Long): Seq[Double] = {
    val idx = qs.indices.filter(qs(_).op == op)
    val perPass = measured.map { case (_, rs) =>
      idx.map(i => Option(rs(i)).map(r => ms(f(r))).getOrElse(Double.NaN)).toArray
    }
    Stats.perEntryMedians(perPass).toSeq.filterNot(_.isNaN)
  }

  /** The traced replay: replay every entry of `passes` passes with spans,
    * guard each replay against the entry point's result, and aggregate the
    * spans into per-layer means per query. A replay that differs from its
    * entry point counts as a failed query.
    */
  private def traced(target: Target, refs: Reference.Answers, qs: Vector[Query],
                     entryResults: Array[Result], passes: Int): Seq[(String, Metric)] = {
    val tr = new Tracer
    val replay = new Replay(tr, target, spark)
    val observed = scala.collection.mutable.ArrayBuffer.empty[(Query, Int, Replayed)]
    var differences = 0
    // One pass of replays, guarded; `pi` < 0 marks a pass whose queries are
    // not aggregated: a warm-up pass, or the untraced half of a measured pair.
    def replayPass(rp: Replay, pi: Int): Double = {
      val t0 = System.nanoTime()
      qs.indices.foreach { i =>
        val q = qs(i)
        val id = math.max(pi, 0) * qs.length + i
        val label = s"replay ${q.id} ${q.key}"
        tally.run(label)(rp.run(q, id)).foreach { r =>
          if (pi >= 0) observed += ((q, id, r))
          val diff = Option(entryResults(i)).toSeq.flatMap(e => Replay.guard(q, e, r))
          diff.take(1).foreach(d => log(s"replay guard: $d"))
          differences += diff.length
          tally.check(label, diff.isEmpty && Ops.sameAnswer(r.answer, refs(q.key)))
        }
      }
      secs(System.nanoTime() - t0)
    }
    // The replay's call sites compile separately from the entry points', so
    // it warms up by the same rule; a warm-up pass replays once without
    // spans and once into a throwaway tracer.
    val untraced = new Replay(Tracer.off, target, spark)
    val (warmTimes, agreed) = wl.warmup.run { () =>
      val t0 = System.nanoTime()
      replayPass(untraced, -1)
      replayPass(new Replay(new Tracer, target, spark), -1)
      System.nanoTime() - t0
    }
    log(s"replay warm-up: ${warmTimes.length} passes of ${warmTimes.map(t => f"${ms(t)}%.0f").mkString(", ")} ms, agreed=$agreed")
    // Measured: alternate a replay without spans and one with; Spark jobs
    // and tasks are counted over the traced replays only.
    val replayGroup: String => Boolean = _.startsWith("replay:")
    var jobsN = 0L
    var tasksN = 0L
    val times = (0 until passes).map { pi =>
      val off = replayPass(untraced, -1)
      spark.foreach(SparkSide.drainListener)
      val jobs0 = jobs.jobsWhere(replayGroup)
      val tasks0 = jobs.tasksWhere(replayGroup)
      val on = replayPass(replay, pi)
      spark.foreach(SparkSide.drainListener)
      jobsN += jobs.jobsWhere(replayGroup) - jobs0
      tasksN += jobs.tasksWhere(replayGroup) - tasks0
      (off, on)
    }
    log(s"replay guard: $differences differences; ${observed.length} replays traced, ${tr.size} spans")
    tr.writeJsonLines(workDir.resolve("trace").resolve(s"${wl.name}-seed$seed-fork$fork.jsonl"))

    val self = tr.selfByQuery
    def selfMs(id: Int, names: String*): Double = names.map(n => ms(self.getOrElse((id, n), 0L))).sum
    def over(ops: Set[String])(f: (Int, Replayed) => Double): Double =
      mean(observed.collect { case (q, id, r) if ops(q.op) => f(id, r) }.toSeq)
    val core = Set("topk", "progressive")
    val topk = Set("topk")
    val sparkOps: Set[String] = if (spark.isDefined) topk else Set.empty
    val sparkQueries = observed.count(o => sparkOps(o._1.op))
    def perSparkQuery(x: Long) = if (sparkQueries == 0) 0.0 else x.toDouble / sparkQueries

    Seq(
      "graph.prefix_size" -> Metric(over(topk)((_, r) => r.stats.accessedSize.toDouble), "count"),
      "core.rounds" -> Metric(over(topk)((_, r) => r.stats.rounds.toDouble), "count"),
      "core.peel_work_ratio" -> Metric(over(topk)((_, r) => r.stats.workSize.toDouble / r.stats.accessedSize), "ratio"),
      "core.keys_used_frac" -> Metric(over(topk)((_, r) =>
        if (r.lastCount == 0) 0.0 else r.answer.length.toDouble / r.lastCount), "ratio"),
      "core.countic_ms" -> Metric(over(core)((id, _) => selfMs(id, "core.countic")), "ms"),
      "core.index_ms" -> Metric(over(core)((id, _) => selfMs(id, "core.index")), "ms"),
      "core.enum_ms" -> Metric(over(core)((id, _) => selfMs(id, "core.enum")), "ms"),
      "core.materialise_ms" -> Metric(over(core)((id, _) => selfMs(id, "core.materialise")), "ms"),
      "core.members_out" -> Metric(over(core)((_, r) => r.membersOut.toDouble), "count"),
      "core.truss_count_ms" -> Metric(over(Set("truss"))((id, _) => selfMs(id, "core.truss_count")), "ms"),
      "core.truss_enum_ms" -> Metric(over(Set("truss"))((id, _) => selfMs(id, "core.truss_enum")), "ms"),
      "spark.collect_ms" -> Metric(over(sparkOps)((id, _) => selfMs(id, "spark.collect_prefix")), "ms"),
      "spark.local_ms" -> Metric(over(sparkOps)((id, _) =>
        selfMs(id, "core.countic", "core.index", "core.enum", "core.materialise")), "ms"),
      "spark.jobs_per_query" -> Metric(perSparkQuery(jobsN), "count"),
      "spark.tasks_per_query" -> Metric(perSparkQuery(tasksN), "count"),
      "spark.rows_fetched" -> Metric(over(sparkOps)((_, r) => r.rowsFetched.toDouble), "count"),
      "spark.fetch_useful_frac" -> Metric(over(sparkOps)((_, r) => r.finalRows.toDouble / r.rowsFetched), "ratio"),
      "trace.overhead_frac" -> Metric(Stats.median(times.map(_._2)) / Stats.median(times.map(_._1)) - 1.0, "ratio"),
    )
  }
}
