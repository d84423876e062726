package icbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}

import scala.jdk.CollectionConverters._

/** The (k, γ) strata of one op: every pair of `ks × gammas` appears once in
  * a pass (a repeated value appears as often as it is listed), so the list's
  * composition is the same for every seed and only its order depends on the
  * seed.
  */
final case class OpSpec(op: String, ks: Seq[Int], gammas: Seq[Int], traceOnly: Boolean = false) {
  def entries: Seq[(Int, Int)] = for { k <- ks; g <- gammas } yield (k, g)
}

/** The warm-up rule: run at least `minPasses` passes, then stop as soon as
  * two successive passes take times within [[Warmup.agreement]] of each
  * other, or at `maxPasses`. Passes are counted, never timed out, so a slower
  * program gets the same warm-up.
  */
final case class Warmup(minPasses: Int, maxPasses: Int) {
  import Warmup.agreement

  /** Run `pass` (returning its time, ns) until the rule stops; returns the
    * passes' times and whether the last two agreed.
    */
  def run(pass: () => Long): (Seq[Long], Boolean) = {
    val times = scala.collection.mutable.ArrayBuffer(pass())
    var agreed = false
    while (times.length < maxPasses && !(agreed && times.length >= minPasses)) {
      times += pass()
      val Seq(prev, cur) = times.takeRight(2).toSeq
      agreed = math.abs(cur - prev).toDouble / prev <= agreement
    }
    (times.toSeq, agreed)
  }
}

object Warmup {
  /** Share by which two successive passes may differ and still agree. */
  val agreement = 0.05
}

/** One workload, as recorded in `icbench/workloads.json`. */
final case class Workload(
    name: String,
    backend: String,          // "local" or "spark"
    scale: Int,               // RMAT scale; the edge factor is Inputs.EdgeFactor
    graphSeed: Long,          // RMAT seed of the workload's graph
    forks: Int,               // JVMs per run, each on the same graph
    weights: String,          // "pagerank" or "uniform"
    setupWarmups: Int,        // untimed set-ups before the timed ones
    setupTimed: Int,
    measuredPasses: Int,      // per 10 s of --seconds
    warmup: Warmup,
    ops: Seq[OpSpec],
) {
  def isSpark: Boolean = backend == "spark"

  /** Measured passes for a run of `seconds`: fixed for a given setting. */
  def passesFor(seconds: Int): Int = math.max(1, math.round(measuredPasses * seconds / 10.0).toInt)

  /** The seeded query list: the fixed strata of every op, shuffled. Ops
    * marked `trace_only` join the list in traced runs only.
    */
  def queries(seed: Long, trace: Boolean): Vector[Query] = {
    val all = ops.filter(o => trace || !o.traceOnly)
      .flatMap(o => o.entries.map { case (k, g) => (o.op, k, g) })
    val rng = new java.util.Random(seed * 0x2545F4914F6CDD1DL + name.hashCode)
    val shuffled = scala.util.Random.javaRandomToRandom(rng).shuffle(all)
    shuffled.zipWithIndex.map { case ((op, k, g), i) => Query(i, op, k, g) }.toVector
  }
}

object Config {

  def load(path: java.nio.file.Path): Map[String, Workload] = {
    val root = new ObjectMapper().readTree(path.toFile).get("workloads")
    root.fieldNames().asScala.map(name => name -> parse(name, root.get(name))).toMap
  }

  private def ints(n: JsonNode): Seq[Int] = n.elements().asScala.map(_.asInt).toSeq

  private def parse(name: String, w: JsonNode): Workload = {
    val ops = w.get("ops").fieldNames().asScala.map { op =>
      val o = w.get("ops").get(op)
      OpSpec(op, ints(o.get("ks")), ints(o.get("gammas")), Option(o.get("trace_only")).exists(_.asBoolean))
    }.toSeq
    Workload(
      name = name,
      backend = w.get("backend").asText,
      scale = w.get("graph").get("scale").asInt,
      graphSeed = w.get("graph").get("seed").asLong,
      forks = w.get("forks").asInt,
      weights = w.get("weights").asText,
      setupWarmups = w.get("setup").get("warmup").asInt,
      setupTimed = w.get("setup").get("timed").asInt,
      measuredPasses = w.get("measured_passes_per_10s").asInt,
      warmup = Warmup(w.get("warmup").get("min_passes").asInt, w.get("warmup").get("max_passes").asInt),
      ops = ops,
    )
  }
}
