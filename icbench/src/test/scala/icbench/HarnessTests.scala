package icbench

import repro.core.Community

/** Tests of the harness's own statistics and failure counting. Run with
  * `python3 icbench/build.py test`; exits non-zero if any check fails.
  */
object HarnessTests {

  private var failures = 0
  private var checks = 0

  private def check(name: String)(cond: => Boolean): Unit = {
    checks += 1
    val ok = try cond catch { case e: Exception => println(s"  threw $e"); false }
    if (!ok) { failures += 1; println(s"FAIL $name") } else println(s"ok   $name")
  }

  private def ms(xs: Int*): Seq[Double] = xs.map(_.toDouble)

  def main(args: Array[String]): Unit = {
    // Percentiles: nearest rank.
    check("percentile nearest rank") {
      val xs = ms(1 to 100: _*)
      Stats.percentile(xs, 50) == 50 && Stats.percentile(xs, 90) == 90 &&
        Stats.percentile(xs, 99.9) == 100 && Stats.percentile(Seq(7.0), 50) == 7
    }
    check("median of even and odd counts") {
      Stats.median(ms(3, 1, 2)) == 2 && Stats.median(ms(4, 1, 3, 2)) == 2.5
    }

    // Tail rule: the highest ladder percentile with >= 10 samples beyond it.
    check("tail with 100 samples is p90 (10 beyond)") {
      val t = Stats.tail(ms(1 to 100: _*))
      t.p == 90.0 && t.value == 90 && t.beyond == 10 && t.n == 100
    }
    check("tail with 1000 samples is p99 (10 beyond)") {
      val t = Stats.tail(ms(1 to 1000: _*))
      t.p == 99.0 && t.value == 990 && t.beyond == 10
    }
    check("tail with 99 samples falls back to p75 (not p90 with 9 beyond)") {
      val t = Stats.tail(ms(1 to 99: _*))
      t.p == 75.0 && t.beyond >= 10 && Stats.beyond(ms(1 to 99: _*), 90.0) < 10
    }
    check("tail with 144 samples is p90") {
      val t = Stats.tail(ms(1 to 144: _*))
      t.p == 90.0 && t.beyond == 14
    }
    check("tail with ties counts only samples strictly beyond") {
      // 95 equal samples and 5 larger: no rung has 10 beyond.
      val xs = Seq.fill(95)(1.0) ++ ms(2, 3, 4, 5, 6)
      val t = Stats.tail(xs)
      t.p == 100.0 && t.value == 6 && t.beyond == 0
    }
    check("tail of 30 samples is the maximum: p75 would have only 7 beyond") {
      val t = Stats.tail(ms(1 to 30: _*))
      t.p == 100.0 && t.value == 30 && t.n == 30
    }
    check("tail of too few samples is the maximum, reported as p100") {
      val t = Stats.tail(ms(5, 1, 3))
      t.p == 100.0 && t.value == 5 && t.n == 3
    }

    // Per-entry aggregation: median over passes, entry by entry.
    check("per-entry medians over passes") {
      val passes = Seq(Array(1.0, 10.0, 5.0), Array(2.0, 30.0, 5.0), Array(100.0, 20.0, 5.0))
      Stats.perEntryMedians(passes).toSeq == Seq(2.0, 20.0, 5.0)
    }
    check("a slow pass does not move any entry's median") {
      val base = Array.fill(4)(1.0)
      val passes = Seq(base, base.clone(), base.map(_ * 50))
      Stats.perEntryMedians(passes).forall(_ == 1.0)
    }
    check("per-entry medians reject passes of different lengths") {
      try { Stats.perEntryMedians(Seq(Array(1.0), Array(1.0, 2.0))); false }
      catch { case _: IllegalArgumentException => true }
    }

    // failed_frac: a wrong answer and a thrown exception both count.
    check("failed_frac counts a wrong answer and a thrown exception") {
      val tally = new Tally
      val right = Seq(Community(1L, 2.0, Array(1L, 2L, 3L)))
      val wrong = Seq(Community(1L, 2.0, Array(1L, 2L)))
      tally.run("right")(right).foreach(a => tally.check("right", Ops.sameAnswer(a, right)))
      tally.run("wrong")(wrong).foreach(a => tally.check("wrong", Ops.sameAnswer(a, right)))
      val thrown = tally.run("throws")((throw new IllegalStateException("boom")): Seq[Community])
      tally.run("right again")(right).foreach(a => tally.check("right again", Ops.sameAnswer(a, right)))
      thrown.isEmpty && tally.attempted == 4 && tally.failed == 2 &&
        Stats.failedFrac(tally.attempted, tally.failed) == 0.5
    }
    check("a stack overflow counts as a failure, not a crash") {
      val tally = new Tally
      def deep(n: Int): Int = if (n == 0) 0 else 1 + deep(n - 1)
      tally.run("deep")(deep(Int.MaxValue)).isEmpty && tally.failed == 1
    }
    check("failed_frac of nothing attempted is 0") { Stats.failedFrac(0, 0) == 0.0 }
    check("answers compare members by value, in order") {
      val a = Seq(Community(1L, 2.0, Array(1L, 2L)), Community(3L, 1.0, Array(3L)))
      val b = Seq(Community(1L, 2.0, Array(1L, 2L)), Community(3L, 1.0, Array(3L)))
      Ops.sameAnswer(a, b) && !Ops.sameAnswer(a, b.reverse) && !Ops.sameAnswer(a, b.take(1))
    }

    // The span tree's self time.
    check("self time subtracts child spans") {
      val tr = new Tracer
      tr.query(7) {
        tr.span("round") { Thread.sleep(5); tr.span("core.countic")(Thread.sleep(20)) }
        tr.span("core.index")(())
      }
      val self = tr.selfByQuery
      val total = tr.selfNs.sum
      self((7, "core.countic")) >= 20e6 && self((7, "round")) < 20e6 &&
        self.keySet.map(_._2) == Set("query", "round", "core.countic", "core.index") &&
        total > 25e6
    }

    // Combining forks: pooled samples, summed throughput, JSON round trip.
    def fork(topk: Seq[Double], entries: Int, passS: Double, failed: Long) =
      ForkResult(100, failed, Seq(1.0), Seq(1.0), Nil, Nil, 30.0, entries, passS, 5, false,
        Map("topk" -> topk, "first" -> topk, "progressive" -> topk), Seq(0.1, 0.3), Nil)
    check("report takes the median over forks of each fork's figures") {
      val m = Report.endToEnd(Seq(fork(Seq(1, 2, 3), 10, 1.0, 0), fork(Seq(4, 5, 6, 7), 30, 2.0, 0),
                                  fork(Seq(2, 3, 4), 40, 2.0, 0))).toMap
      m("topk_p50_ms").value == 3.0 && m("queries_per_s").value == 15.0 &&
        math.abs(m("accessed_frac").value - 0.2) < 1e-12 && m("setup_s").value == 1.0
    }
    check("one slow fork of three does not set the run's p50") {
      val fast = ms(1 to 30: _*)
      val m = Report.endToEnd(Seq(fork(fast, 30, 1.0, 0), fork(fast.map(_ * 3), 30, 3.0, 0), fork(fast, 30, 1.0, 0))).toMap
      m("topk_p50_ms").value == 15.5 && m("topk_tail_ms").value == 30.0 && m("queries_per_s").value == 30.0
    }
    check("fork results survive the JSON round trip") {
      val f = fork(Seq(0.5, 1.5), 2, 0.25, 1).copy(warmupCapped = true, layers = Seq("core.rounds" -> Metric(1.5, "count")))
      val path = java.nio.file.Files.createTempFile("fork", ".json")
      try { ForkResult.write(path, f); ForkResult.read(path) == f }
      finally java.nio.file.Files.delete(path)
    }

    check("report counts the forks whose warm-up reached its cap") {
      val m = Report.perLayer(Seq(fork(Seq(1), 1, 1.0, 0), fork(Seq(1), 1, 1.0, 0).copy(warmupPasses = 8,
        warmupCapped = true))).toMap
      m("bench.warmup_passes").value == 6.5 && m("bench.warmup_capped").value == 1.0
    }

    // Warm-up: counted passes, never a time window.
    def warmup(rule: Warmup, times: Long*): (Int, Boolean, Int) = {
      var i = 0
      val (ran, agreed) = rule.run { () => i += 1; times(i - 1) }
      (ran.length, agreed, i)
    }
    check("warm-up stops at the first two agreeing passes after the minimum") {
      warmup(Warmup(2, 10), 300, 200, 150, 148, 100) == ((4, true, 4)) &&
        warmup(Warmup(5, 10), 300, 100, 100, 100, 100, 100) == ((5, true, 5))
    }
    check("warm-up stops at its pass cap and says the passes never agreed") {
      warmup(Warmup(2, 4), 100, 200, 100, 200, 100) == ((4, false, 4))
    }

    check("the off tracer records nothing and returns the body's value") {
      Tracer.off.query(1)(Tracer.off.span("round")(41) + 1) == 42 && Tracer.off.size == 0
    }

    // Query lists: fixed composition, seeded order.
    check("query list has the same composition for every seed") {
      val wl = Workload("w", "local", 10, 1L, 1, "uniform", 0, 1, 1, Warmup(2, 5),
        Seq(OpSpec("topk", Seq(10, 10, 5, 10, 10, 5), Seq(10, 20)), OpSpec("truss", Seq(5), Seq(10))))
      val a = wl.queries(1, false); val b = wl.queries(2, false)
      a.length == 13 && a.map(_.key).sorted == b.map(_.key).sorted && a != b && a == wl.queries(1, false)
    }
    check("trace-only ops join the list in traced runs only") {
      val wl = Workload("w", "local", 10, 1L, 1, "uniform", 0, 1, 1, Warmup(2, 5),
        Seq(OpSpec("topk", Seq(10), Seq(10)), OpSpec("truss", Seq(5, 10), Seq(10), traceOnly = true)))
      wl.queries(1, false).map(_.op) == Vector("topk") &&
        wl.queries(1, true).map(_.op).sorted == Vector("topk", "truss", "truss")
    }

    println(s"$checks checks, $failures failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
