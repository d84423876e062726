package repro.exp

import org.apache.spark.sql.SparkSession

/** One reproduced table: its title, its header and the function that
  * measures its rows. Title and header need no Spark work, so they can be
  * checked without computing a row; EXPERIMENTS.tmpl.md names each table by
  * its exact title.
  */
final case class Table(title: String, header: Seq[String],
                       rows: SparkSession => Seq[Seq[String]]) {

  /** Measures the rows, prints the rendered table and returns the rows. */
  def run(spark: SparkSession): Seq[Seq[String]] = {
    val measured = rows(spark)
    println(render(measured))
    measured
  }

  /** Fixed-width rendering, as captured by the benches into EXPERIMENTS.md. */
  def render(rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(c => all.map(_(c).length).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (s, w) => s.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"### $title" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }
}

/** Every reproduced table of the paper's §6, under the experiment name that
  * `repro.jobs.Reproduce` takes.
  */
object Experiments {

  val byName: Seq[(String, Seq[Table])] = Seq(
    "table1" -> Seq(Table1.table),
    "eval1"  -> Seq(Eval1.fig8, Eval1.fig9, Eval1.fig10),
    "eval2"  -> Seq(Eval2.table),
    "eval3"  -> Seq(Eval3.table),
    "eval4"  -> Seq(Eval4.table),
    "eval5"  -> Seq(Eval5.fig14, Eval5.fig15),
    "eval6"  -> Seq(Eval6.table),
    "eval7"  -> Seq(Eval7.table),
    "eval8"  -> Seq(Eval8.table),
    "eval9"  -> Seq(Eval9.table),
  )
}
