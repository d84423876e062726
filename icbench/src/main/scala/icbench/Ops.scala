package icbench

import repro.baseline.Forward
import repro.core.{Community, LocalSearch, LocalSearchP, SearchStats, Truss}
import repro.graph.WGraph
import repro.spark.{DistLocalSearch, SparkGraphStore}

/** What the queries run against. `local` serves the local entry points; on
  * the Spark workload it is the store's `toLocal` copy.
  */
sealed trait Target {
  def local: WGraph
  /** size(G) = |V| + |E| of the queried graph. */
  def size: Long = local.size
}
final class LocalTarget(val local: WGraph) extends Target
final class SparkTarget(val store: SparkGraphStore, val local: WGraph) extends Target

/** One query's answer, the entry point's statistics where it reports them,
  * the time to the whole answer and the time to its first community (ns).
  */
final case class Result(answer: Seq[Community], stats: Option[SearchStats],
                        totalNs: Long, firstNs: Long)

/** The ops of the query mix, each a call into one public entry point:
  *
  *  - `topk`: `LocalSearch.topK` on a local graph, `DistLocalSearch.topK` on
  *    the Spark store;
  *  - `progressive`: `LocalSearchP.iterator`, consumed and materialised one
  *    community at a time until k (as `LocalSearchP.topK` does);
  *  - `truss`: `Truss.localSearchTopK`.
  */
object Ops {

  def run(t: Target, q: Query): Result = q.op match {
    case "topk" =>
      val t0 = System.nanoTime()
      val (out, st) = t match {
        case s: SparkTarget => DistLocalSearch.topK(s.store, q.k, q.gamma)
        case _              => LocalSearch.topK(t.local, q.k, q.gamma)
      }
      val ns = System.nanoTime() - t0
      Result(out, Some(st), ns, ns)
    case "progressive" =>
      val t0 = System.nanoTime()
      val it = LocalSearchP.iterator(t.local, q.gamma)
      val out = Vector.newBuilder[Community]
      var firstNs = -1L
      var n = 0
      while (n < q.k && it.hasNext) {
        out += it.next().materialise()
        if (n == 0) firstNs = System.nanoTime() - t0
        n += 1
      }
      val ns = System.nanoTime() - t0
      Result(out.result(), None, ns, if (firstNs < 0) ns else firstNs)
    case "truss" =>
      val t0 = System.nanoTime()
      val (out, st) = Truss.localSearchTopK(t.local, q.k, q.gamma)
      val ns = System.nanoTime() - t0
      Result(out, Some(st), ns, ns)
    case other => throw new IllegalArgumentException(s"unknown op $other")
  }

  /** Same communities in the same order: key, influence and members. */
  def sameAnswer(a: Seq[Community], b: Seq[Community]): Boolean =
    a.length == b.length && a.lazyZip(b).forall { (x, y) =>
      x.keyId == y.keyId && x.influence == y.influence &&
        java.util.Arrays.equals(x.members, y.members)
    }
}

/** Reference answers from algorithms independent of the timed path, one per
  * distinct (op, k, γ), computed before any timing.
  *
  * Core ops use the global `Forward.topK`; the truss op uses
  * `Truss.globalSearchTopK`; the Spark `topk` op uses `LocalSearch.topK` on
  * `store.toLocal`. Top-k answers are prefixes of each other (communities come
  * in decreasing influence order), so a global algorithm runs once per γ with
  * the largest k of the list and every smaller k takes its prefix.
  */
object Reference {

  /** Reference answer per (op, k, γ). */
  type Answers = Map[(String, Int, Int), Seq[Community]]

  def compute(t: Target, qs: Seq[Query]): Answers = {
    val g = t.local
    def algorithm(op: String): String = (op, t) match {
      case ("truss", _)             => "truss"
      case ("topk", _: SparkTarget) => "local"
      case _                        => "forward"
    }
    qs.map(_.key).distinct.groupBy { case (op, _, gamma) => (algorithm(op), gamma) }
      .toSeq.flatMap { case ((alg, gamma), keys) =>
        val kmax = keys.map(_._2).max
        alg match {
          case "local" => keys.map(key => key -> LocalSearch.topK(g, key._2, gamma)._1)
          case "truss" =>
            val all = Truss.globalSearchTopK(g, kmax, gamma)
            keys.map(key => key -> all.take(key._2))
          case _ =>
            val all = Forward.topK(g, kmax, gamma)
            keys.map(key => key -> all.take(key._2))
        }
      }.toMap
  }
}
