package repro.bench

import repro.SparkSpec
import repro.exp._

/** Benchmark suites — one per evaluation table/figure of the paper. Each
  * runs its [[Experiments]] tables, which print themselves (captured into
  * bench_output.txt and filled into EXPERIMENTS.md by
  * scripts/assemble_experiments.py), and asserts the *shape* facts the paper
  * claims; absolute milliseconds differ because the stand-in graphs are
  * 10²–10⁴× smaller (DESIGN.md §3).
  *
  * Suites share the JVM-wide [[Datasets]] cache, so graphs are built once.
  */
class Table1Bench extends SparkSpec {
  test("Table 1: stand-in graph statistics") {
    val rows = Table1.table.run(spark)
    // size ordering mirrors the paper's: email smallest, arabic/twitter biggest
    val mByName = rows.map(r => r.head -> r(3).toLong).toMap
    assert(mByName("email-s") < mByName("youtube-s"))
    assert(mByName("orkut-s") > mByName("wiki-s"))
    assert(mByName("arabic-s") > mByName("orkut-s"))
    // every graph supports the default query γ=10
    rows.filter(_.head != "dblp-s").foreach(r => assert(r(6).toInt >= 10, r.head))
  }
}

class Eval1Bench extends SparkSpec {
  test("Eval-I: LocalSearch-P vs OnlineAll vs Forward (vary k, vary gamma)") {
    val vk = Eval1.fig8.run(spark)
    val vg = Eval1.fig9.run(spark)
    Eval1.fig10.run(spark)
    // shape: on every graph/k, LocalSearch-P beats Forward, which beats
    // OnlineAll where the latter ran (aggregate, not per-row, to avoid noise)
    def tot(rows: Seq[Seq[String]], col: Int) =
      rows.map(_(col)).filter(_ != "-").map(_.toDouble).sum
    assert(tot(vk, 2) < tot(vk, 3), "LocalSearch-P total < Forward total (vary k)")
    val oaRows = vk.filter(_(4) != "-")
    assert(tot(oaRows, 3) < tot(oaRows, 4), "Forward total < OnlineAll total")
    assert(tot(vg, 2) < tot(vg, 3), "LocalSearch-P total < Forward total (vary gamma)")
  }
}

class Eval2Bench extends SparkSpec {
  test("Eval-II: LocalSearch-P vs Backward") {
    val rows = Eval2.table.run(spark)
    val lsp = rows.map(_(3).toDouble).sum
    val bwd = rows.map(_(4).toDouble).sum
    assert(lsp < bwd, s"LocalSearch-P total $lsp < Backward total $bwd")
  }
}

class Eval3Bench extends SparkSpec {
  test("Eval-III: LocalSearch-P vs LocalSearch-OA") {
    val rows = Eval3.table.run(spark)
    assert(rows.map(_(2).toDouble).sum <= rows.map(_(3).toDouble).sum * 1.2,
      "CountIC-based counting is no slower than OnlineAll-style counting")
  }
}

class Eval4Bench extends SparkSpec {
  test("Eval-IV: growth ratio delta sweep") {
    val rows = Eval4.table.run(spark)
    // shape: delta around 2 is not dominated by the extreme delta=128
    val at2 = rows.map(_(2).toDouble).sum   // δ=2 column
    val at128 = rows.map(_.last.toDouble).sum
    assert(at2 <= at128 * 1.5, s"delta=2 total $at2 vs delta=128 total $at128")
  }
}

class Eval5Bench extends SparkSpec {
  test("Eval-V: progressive reporting latency and total time") {
    val lat = Eval5.fig14.run(spark)
    Eval5.fig15.run(spark)
    // progressive latencies are non-decreasing in i
    for (row <- lat) {
      val times = row.slice(2, 2 + Eval5.reportAt.length).map(_.toDouble)
      assert(times.zip(times.tail).forall { case (a, b) => a <= b + 1e-6 }, row.head)
    }
    // the first community arrives no later than the batch algorithm finishes
    for (row <- lat)
      assert(row(2).toDouble <= row.last.toDouble,
        s"${row.head}: first report ${row(2)} vs batch total ${row.last}")
  }
}

class Eval6Bench extends SparkSpec {
  test("Eval-VI: semi-external LocalSearch-SE vs OnlineAll-SE") {
    val rows = Eval6.table.run(spark)
    for (row <- rows) {
      assert(row(4).toLong <= row(5).toLong, s"${row.head}: LS-SE I/O bounded by full scan")
      assert(row(6).toLong <= row(5).toLong, s"${row.head}: LS-SE memory below graph size")
      assert(row(2).toDouble < row(3).toDouble, s"${row.head}: LS-SE faster than OA-SE")
    }
  }
}

class Eval7Bench extends SparkSpec {
  test("Eval-VII: non-containment queries") {
    val rows = Eval7.table.run(spark)
    // Locality can only pay off while k NC communities actually exist in a
    // prefix: once k > #NC(graph) every correct algorithm scans everything
    // (see Eval7 doc). Assert the win on the within-budget rows.
    val local = rows.filter(r => r(2).toInt <= r(3).toInt)
    assert(local.nonEmpty, "at least one within-budget NC configuration")
    assert(local.map(_(4).toDouble).sum < local.map(_(5).toDouble).sum * 1.2,
      "NC local search beats NC Forward where k <= #NC")
    // and on exhaustive rows it stays within a small constant of Forward
    val global = rows.filter(r => r(2).toInt > r(3).toInt)
    if (global.nonEmpty)
      assert(global.map(_(4).toDouble).sum < global.map(_(5).toDouble).sum * 3,
        "NC local search stays within 3x of Forward when exhaustive")
  }
}

class Eval8Bench extends SparkSpec {
  test("Eval-VIII: gamma-truss community search") {
    val rows = Eval8.table.run(spark)
    assert(rows.map(_(2).toDouble).sum < rows.map(_(3).toDouble).sum,
      "LocalSearch-Truss beats GlobalSearch-Truss in aggregate")
  }
}

class Eval9Bench extends SparkSpec {
  test("Eval-IX: DBLP-like case study") {
    val rows = Eval9.table.run(spark)
    val byKey = rows.map(r => r.head.trim -> r(1)).toMap
    assert(byKey("6-truss community inside 5-community of same key") == "true")
    assert(byKey("truss influence <= core influence") == "true")
    // the influential community refines the big core community (Fig. 21 point)
    val commSize = byKey("top-1 influential 5-community size").toInt
    val coreSize = byKey("5-core community of that vertex (Fig. 21 analogue)").toInt
    assert(commSize <= coreSize)
  }
}
