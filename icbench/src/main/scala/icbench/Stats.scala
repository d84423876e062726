package icbench

/** A tail percentile and the samples behind it. */
final case class Tail(p: Double, value: Double, n: Int, beyond: Int)

/** The harness's statistics. Latency samples are per list entry: each entry's
  * median over the measured passes, so a host hiccup in one pass does not
  * move an entry, and every run of a workload has the same sample count.
  */
object Stats {

  /** Percentiles tried for the tail, highest first. */
  val tailLadder: Seq[Double] = Seq(99.9, 99.0, 95.0, 90.0, 75.0)

  /** Minimum number of samples that must lie beyond a reported tail. */
  val minBeyond: Int = 10

  /** Nearest-rank percentile of `xs` (0 < p ≤ 100); `xs` must be non-empty. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    val sorted = xs.sorted
    val rank = math.ceil(p / 100.0 * sorted.length).toInt
    sorted(math.min(sorted.length, math.max(1, rank)) - 1)
  }

  /** Median (mean of the two middle values for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val h = s.length / 2
    if (s.length % 2 == 1) s(h) else (s(h - 1) + s(h)) / 2
  }

  /** Samples strictly above the `p`-th percentile. */
  def beyond(xs: Seq[Double], p: Double): Int = {
    val v = percentile(xs, p)
    xs.count(_ > v)
  }

  /** The highest ladder percentile with at least [[minBeyond]] samples
    * beyond it. With too few samples for any rung, the maximum is reported
    * as p100 so the caller still sees a number and its N.
    */
  def tail(xs: Seq[Double]): Tail =
    tailLadder.iterator.map(p => (p, beyond(xs, p)))
      .collectFirst { case (p, b) if b >= minBeyond => Tail(p, percentile(xs, p), xs.length, b) }
      .getOrElse(Tail(100.0, xs.max, xs.length, 0))

  /** Per-entry aggregation: `passes(i)(j)` is entry j's sample in measured
    * pass i; the result is each entry's median over the passes.
    */
  def perEntryMedians(passes: Seq[Array[Double]]): Array[Double] = {
    require(passes.nonEmpty, "no measured passes")
    val n = passes.head.length
    require(passes.forall(_.length == n), "passes differ in length")
    Array.tabulate(n)(j => median(passes.map(_(j))))
  }

  /** Share of attempted queries that failed. */
  def failedFrac(attempted: Long, failed: Long): Double =
    if (attempted == 0) 0.0 else failed.toDouble / attempted
}

/** Counts attempted and failed queries. A query fails when it throws or when
  * its answer differs from the reference.
  */
final class Tally {
  private var attemptedN = 0L
  private var failedN = 0L
  private val firstErrors = scala.collection.mutable.ArrayBuffer.empty[String]

  def attempted: Long = attemptedN
  def failed: Long = failedN
  def errors: Seq[String] = firstErrors.toSeq

  /** Run one query. A thrown exception counts as a failure and yields None. */
  def run[A](label: => String)(body: => A): Option[A] = {
    attemptedN += 1
    try Some(body)
    catch {
      case e @ (_: Exception | _: StackOverflowError) =>
        fail(s"$label: ${e.getClass.getSimpleName}: ${e.getMessage}")
        None
    }
  }

  /** Count a query that returned as failed unless its answer was right. */
  def check(label: => String, rightAnswer: Boolean): Unit =
    if (!rightAnswer) fail(s"$label: wrong answer")

  private def fail(msg: String): Unit = {
    failedN += 1
    if (firstErrors.length < 5) firstErrors += msg
  }
}
