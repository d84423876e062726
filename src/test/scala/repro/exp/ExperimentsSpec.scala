package repro.exp

import org.scalatest.funsuite.AnyFunSuite

import scala.io.Source

/** EXPERIMENTS.tmpl.md names each reproduced table by its exact title, and
  * scripts/assemble_experiments.py fills each placeholder with that one
  * table. Checks the pairing without measuring a row.
  */
class ExperimentsSpec extends AnyFunSuite {

  private val placeholder = """\{\{TABLE:(.+)\}\}""".r

  private val placeholders: Seq[String] = {
    val src = Source.fromFile("EXPERIMENTS.tmpl.md", "UTF-8")
    try src.getLines().flatMap(l => placeholder.findFirstMatchIn(l.trim).map(_.group(1))).toSeq
    finally src.close()
  }

  private val titles = Experiments.byName.flatMap(_._2).map(_.title)

  test("no two tables share a title") {
    assert(titles.diff(titles.distinct).isEmpty)
  }

  test("every template placeholder is exactly one table title, used once") {
    assert(placeholders.nonEmpty)
    assert(placeholders.diff(placeholders.distinct).isEmpty, "a placeholder appears twice")
    assert(placeholders.filterNot(titles.contains).isEmpty, "placeholders naming no table")
    assert(titles.filterNot(placeholders.contains).isEmpty, "tables with no placeholder")
  }
}
