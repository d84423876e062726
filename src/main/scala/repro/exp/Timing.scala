package repro.exp

/** Timing protocol of the paper's §6: per configuration, run the algorithm
  * three times after a warm-up and report the average/median CPU time in
  * milliseconds. The first run is timed: one over 2 s is the measurement
  * (its variance is dwarfed by its cost, and the bench must stay within CI
  * budget), any other is the warm-up.
  */
object Timing {

  /** (last result, milliseconds). */
  def measure[A](body: => A): (A, Double) = {
    var t0 = System.nanoTime()
    var result = body
    val first = (System.nanoTime() - t0) / 1e6
    if (first > 2000.0) (result, first)
    else {
      val times = new Array[Double](3)
      var i = 0
      while (i < 3) {
        t0 = System.nanoTime()
        result = body
        times(i) = (System.nanoTime() - t0) / 1e6
        i += 1
      }
      java.util.Arrays.sort(times)
      (result, times(1))
    }
  }

  /** [[measure]]'s protocol for a body that returns several elapsed times,
    * such as the time to each report of one walk: a warm-up run, then the
    * median of three runs at each position.
    */
  def medians(body: => Seq[Double]): Seq[Double] = {
    body // warm-up (JIT)
    Seq.fill(3)(body).transpose.map(ts => ts.sorted.apply(1))
  }

  /** Milliseconds only. */
  def ms[A](body: => A): Double = measure(body)._2

  def fmt(ms: Double): String =
    if (ms >= 100) f"$ms%.0f" else if (ms >= 1) f"$ms%.2f" else f"$ms%.3f"
}
