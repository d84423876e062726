package icbench

import org.apache.spark.sql.SparkSession
import repro.core.{Community, CommunityIndex, CountIC, CvsResult, SearchStats, Truss}
import repro.graph.WGraph

import scala.collection.mutable

/** What a replayed query observed besides its answer. `stats` is what the
  * entry point would report; `lastCount` is the number of keynodes counted in
  * the last round; `rowsFetched` and `finalRows` are the vertex + edge rows
  * the Spark path collected in all rounds and in the last one.
  */
final case class Replayed(answer: Seq[Community], stats: SearchStats, lastCount: Int,
                          membersOut: Long, rowsFetched: Long, finalRows: Long)

/** Bench-side replays of each entry point's δ-growth driver loop, calling the
  * layers' public functions in the same order as the entry point does and
  * recording a span around each call:
  *
  * `query → round → {graph.grow, spark.collect_prefix, core.countic,
  * core.truss_count}`, then `core.index → core.enum → core.materialise` (or
  * `core.truss_enum`).
  *
  * A replay must reproduce its entry point exactly; [[Replay.guard]] checks
  * that, so a change to a driver that the replay no longer mirrors fails the
  * traced run instead of mislabelling phases.
  */
final class Replay(tr: Tracer, t: Target, spark: Option[SparkSession]) {

  /** The growth ratio δ the entry points use by default. */
  private val delta = 2.0

  /** The graph the rounds read: the whole local graph, or on the Spark
    * workload the prefix collected from the store, one tagged job group per
    * round.
    */
  private final class Source(val n: Int, val prefixSize: Int => Long, val growTo: Long => Int,
                             val fetch: (Query, Int, Int) => WGraph)

  private def localSource(g: WGraph) =
    new Source(g.n, g.prefixSize, g.growTo, (_, _, _) => g)

  private val topkSource: Source = t match {
    case s: SparkTarget =>
      new Source(s.store.n, s.store.prefixSize, s.store.growTo, { (q, round, p) =>
        SparkSide.tag(spark.get, s"replay:${q.id}:$round", s"replay ${q.op} k=${q.k} gamma=${q.gamma} round $round p=$p")
        tr.span("spark.collect_prefix")(s.store.collectPrefix(p))
      })
    case _ => localSource(t.local)
  }

  def run(q: Query, traceId: Int): Replayed = tr.query(traceId) {
    q.op match {
      case "topk"        => topK(q, topkSource)
      case "progressive" => progressive(q, t.local)
      case "truss"       => truss(q, t.local)
      case other         => throw new IllegalArgumentException(s"unknown op $other")
    }
  }

  private def grow(src: Source, p: Int): Int = tr.span("graph.grow") {
    val target = math.ceil(delta * src.prefixSize(p).toDouble).toLong
    math.min(src.n, math.max(p + 1, src.growTo(target)))
  }

  /** `LocalSearch.topK` / `DistLocalSearch.topK`. */
  private def topK(q: Query, src: Source): Replayed = {
    var p = math.min(src.n, q.k + q.gamma)
    var rounds = 0
    var work = 0L
    var rows = 0L
    var lastRows = 0L
    var graph: WGraph = null
    var res: CvsResult = null
    var done = false
    while (!done) tr.span("round") {
      graph = src.fetch(q, rounds, p)
      lastRows = graph.n + graph.m
      rows += lastRows
      res = tr.span("core.countic")(CountIC.run(graph, p, q.gamma))
      rounds += 1
      work += src.prefixSize(p)
      if (res.count >= q.k || p == src.n) done = true
      else p = grow(src, p)
    }
    val idx = tr.span("core.index")(new CommunityIndex(graph))
    val from = math.max(0, res.keys.length - q.k)
    tr.span("core.enum")(idx.process(res, p, from))
    val out = tr.span("core.materialise") {
      (res.keys.length - 1 to from by -1).map(i => idx.community(res.keys(i)))
    }
    Replayed(out, SearchStats(rounds, p, src.prefixSize(p), work), res.count,
             out.map(_.members.length.toLong).sum, rows, lastRows)
  }

  /** `LocalSearchP.iterator`, consumed until k communities. */
  private def progressive(q: Query, g: WGraph): Replayed = {
    val src = localSource(g)
    val index = tr.span("core.index")(new CommunityIndex(g))
    var p = math.min(g.n, 1 + q.gamma)
    var prevP = 0
    var lastP = p
    var exhausted = g.n == 0
    var rounds = 0
    var work = 0L
    var lastCount = 0
    val pending = new mutable.Queue[Int]
    val out = Vector.newBuilder[Community]
    var taken = 0
    var more = true
    while (taken < q.k && more) {
      while (pending.isEmpty && !exhausted) tr.span("round") {
        val res = tr.span("core.countic")(CountIC.run(g, p, q.gamma, stopBeforeRank = prevP))
        tr.span("core.enum")(index.process(res, p, 0))
        var i = res.keys.length - 1
        while (i >= 0) { pending.enqueue(res.keys(i)); i -= 1 }
        rounds += 1
        work += g.prefixSize(p)
        lastP = p
        lastCount = res.count
        if (p == g.n) exhausted = true
        else { prevP = p; p = grow(src, p) }
      }
      if (pending.isEmpty) more = false
      else {
        val key = pending.dequeue()
        out += tr.span("core.materialise")(index.community(key))
        taken += 1
      }
    }
    val answer = out.result()
    Replayed(answer, SearchStats(rounds, lastP, g.prefixSize(lastP), work), lastCount,
             answer.map(_.members.length.toLong).sum, 0L, 0L)
  }

  /** `Truss.localSearchTopK`. */
  private def truss(q: Query, g: WGraph): Replayed = {
    val src = localSource(g)
    var p = math.min(g.n, q.k + q.gamma)
    var rounds = 0
    var work = 0L
    var res = tr.span("round") {
      rounds += 1
      work += g.prefixSize(p)
      tr.span("core.truss_count")(Truss.countICC(g, p, q.gamma))
    }
    while (res.count < q.k && p < g.n) res = tr.span("round") {
      p = grow(src, p)
      rounds += 1
      work += g.prefixSize(p)
      tr.span("core.truss_count")(Truss.countICC(g, p, q.gamma))
    }
    val out = tr.span("core.truss_enum")(Truss.enumICC(g, p, res, q.k))
    Replayed(out, SearchStats(rounds, p, g.prefixSize(p), work), res.count,
             out.map(_.members.length.toLong).sum, 0L, 0L)
  }
}

object Replay {

  /** The replay fidelity guard: the replay must return the entry point's
    * answer and, where the entry point reports them, its statistics. Returns
    * the differences found (empty when faithful).
    */
  def guard(q: Query, entry: Result, replay: Replayed): Seq[String] = {
    val answer =
      if (Ops.sameAnswer(entry.answer, replay.answer)) Nil
      else Seq(s"query ${q.id} (${q.op} k=${q.k} gamma=${q.gamma}): replay answer differs")
    val stats = entry.stats match {
      case Some(s) if s != replay.stats =>
        Seq(s"query ${q.id} (${q.op} k=${q.k} gamma=${q.gamma}): replay stats ${replay.stats} != $s")
      case _ => Nil
    }
    answer ++ stats
  }
}
