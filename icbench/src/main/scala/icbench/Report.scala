package icbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}

import java.nio.file.Path
import scala.jdk.CollectionConverters._

/** What one fork measured on its graph.
  *
  * @param samples per op, the per-entry medians over the measured passes (ms):
  *                `topk`, `first` (time to the first community of the
  *                progressive op) and `progressive` (time to its k-th)
  * @param passS   median time of one measured pass over the list
  * @param warmupPasses entry-point warm-up passes run before measuring
  * @param warmupCapped whether the warm-up stopped at its pass cap, not
  *                     because two successive passes agreed
  * @param accessed per topk entry, size(G≥τ*)/size(G)
  * @param layers  per-layer metrics (traced runs only)
  */
final case class ForkResult(
    attempted: Long, failed: Long,
    setupS: Seq[Double], graphBuildS: Seq[Double], pagerankS: Seq[Double], storeBuildS: Seq[Double],
    heapMb: Double, entries: Int, passS: Double, warmupPasses: Int, warmupCapped: Boolean,
    samples: Map[String, Seq[Double]], accessed: Seq[Double],
    layers: Seq[(String, Metric)])

object ForkResult {
  private val mapper = new ObjectMapper()

  def write(path: Path, r: ForkResult): Unit = {
    val o = mapper.createObjectNode()
    def nums(name: String, xs: Seq[Double]) = { val a = o.putArray(name); xs.foreach(a.add(_)) }
    o.put("attempted", r.attempted); o.put("failed", r.failed)
    nums("setup_s", r.setupS); nums("graph_build_s", r.graphBuildS)
    nums("pagerank_s", r.pagerankS); nums("store_build_s", r.storeBuildS)
    o.put("heap_mb", r.heapMb); o.put("entries", r.entries); o.put("pass_s", r.passS)
    o.put("warmup_passes", r.warmupPasses); o.put("warmup_capped", r.warmupCapped)
    val s = o.putObject("samples")
    r.samples.foreach { case (k, xs) => val a = s.putArray(k); xs.foreach(a.add(_)) }
    nums("accessed", r.accessed)
    val l = o.putArray("layers")
    r.layers.foreach { case (n, m) => l.addObject().put("name", n).put("value", m.value).put("unit", m.unit) }
    Dirs.ensureParent(path)
    mapper.writeValue(path.toFile, o)
  }

  def read(path: Path): ForkResult = {
    val o = mapper.readTree(path.toFile)
    def nums(n: JsonNode): Seq[Double] = n.elements().asScala.map(_.asDouble).toSeq
    ForkResult(
      o.get("attempted").asLong, o.get("failed").asLong,
      nums(o.get("setup_s")), nums(o.get("graph_build_s")), nums(o.get("pagerank_s")),
      nums(o.get("store_build_s")), o.get("heap_mb").asDouble, o.get("entries").asInt,
      o.get("pass_s").asDouble, o.get("warmup_passes").asInt, o.get("warmup_capped").asBoolean,
      o.get("samples").fieldNames().asScala.map(k => k -> nums(o.get("samples").get(k))).toMap,
      nums(o.get("accessed")),
      o.get("layers").elements().asScala.map { m =>
        m.get("name").asText -> Metric(m.get("value").asDouble, m.get("unit").asText)
      }.toSeq)
  }
}

/** Combines the forks of one run into its metrics. Each latency and
  * throughput figure is taken per fork (one JVM, one graph) and the run
  * reports the median over the forks, so one JVM whose compiler took an
  * unusual path does not set the run's figure; every fork's figures are
  * logged. Per-layer means are averaged over the forks, which run equally
  * many queries.
  */
object Report {

  private def med(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)

  def metrics(forks: Seq[ForkResult], trace: Boolean): Seq[(String, Metric)] = {
    val capped = forks.count(_.warmupCapped)
    if (capped > 0)
      System.err.println(s"[icbench] warm-up reached its pass cap in $capped of ${forks.length} forks")
    if (trace) perLayer(forks) else endToEnd(forks)
  }

  def endToEnd(forks: Seq[ForkResult]): Seq[(String, Metric)] = {
    val tails = forks.map(f => Stats.tail(f.samples("topk")))
    def p50(f: ForkResult, op: String) = Stats.median(f.samples(op))
    forks.zip(tails).zipWithIndex.foreach { case ((f, t), j) =>
      System.err.println(f"[icbench] fork $j: topk p50 ${p50(f, "topk")}%.4f ms, tail p${t.p} of N=${t.n} " +
        f"(${t.beyond} beyond) ${t.value}%.4f ms; first p50 ${p50(f, "first")}%.4f ms; " +
        f"progressive p50 ${p50(f, "progressive")}%.4f ms; ${f.entries / f.passS}%.1f queries/s")
    }
    val accessed = forks.flatMap(_.accessed)
    Seq(
      "topk_p50_ms" -> Metric(Stats.median(forks.map(p50(_, "topk"))), "ms"),
      "topk_tail_ms" -> Metric(Stats.median(tails.map(_.value)), "ms"),
      "first_p50_ms" -> Metric(Stats.median(forks.map(p50(_, "first"))), "ms"),
      "progressive_p50_ms" -> Metric(Stats.median(forks.map(p50(_, "progressive"))), "ms"),
      "queries_per_s" -> Metric(Stats.median(forks.map(f => f.entries / f.passS)), "1/s"),
      "setup_s" -> Metric(Stats.median(forks.flatMap(_.setupS)), "s"),
      "setup_heap_mb" -> Metric(Stats.median(forks.map(_.heapMb)), "MB"),
      "accessed_frac" -> Metric(accessed.sum / accessed.length, "ratio"),
    )
  }

  def perLayer(forks: Seq[ForkResult]): Seq[(String, Metric)] = {
    val means = forks.head.layers.map { case (name, m) =>
      name -> Metric(forks.map(_.layers.toMap.apply(name).value).sum / forks.length, m.unit)
    }
    Seq(
      "graph.build_s" -> Metric(med(forks.flatMap(_.graphBuildS)), "s"),
      "spark.pagerank_s" -> Metric(med(forks.flatMap(_.pagerankS)), "s"),
      "spark.store_build_s" -> Metric(med(forks.flatMap(_.storeBuildS)), "s"),
      "bench.warmup_passes" -> Metric(forks.map(_.warmupPasses).sum.toDouble / forks.length, "count"),
      "bench.warmup_capped" -> Metric(forks.count(_.warmupCapped).toDouble, "count"),
    ) ++ means
  }
}
