package icbench

import scala.collection.mutable

/** In-memory span recorder. A span has a name, start and end (ns), the span
  * that caused it and the query it belongs to. Spans are appended to
  * primitive buffers while the benchmark runs and written out at the end.
  * [[Tracer.off]] records nothing; replaying with it measures the tracer's
  * own overhead.
  */
class Tracer {
  private val names = mutable.ArrayBuffer.empty[String]
  private val starts = mutable.ArrayBuffer.empty[Long]
  private val ends = mutable.ArrayBuffer.empty[Long]
  private val parents = mutable.ArrayBuffer.empty[Int]
  private val queries = mutable.ArrayBuffer.empty[Int]
  private var open = -1
  private var query = -1

  def size: Int = names.length

  /** Record `body` as a span named `name`, child of the innermost open span. */
  def span[A](name: String)(body: => A): A = {
    val id = names.length
    names += name; starts += System.nanoTime(); ends += -1L
    parents += open; queries += query
    val outer = open
    open = id
    try body
    finally { ends(id) = System.nanoTime(); open = outer }
  }

  /** Record a whole query: spans opened inside share the query's id. */
  def query[A](id: Int)(body: => A): A = {
    val outer = query
    query = id
    try span("query")(body) finally query = outer
  }

  /** Self time (ns) of every span: its duration minus its children's. */
  def selfNs: Array[Long] = {
    val self = Array.tabulate(size)(i => ends(i) - starts(i))
    var i = 0
    while (i < size) {
      if (parents(i) >= 0) self(parents(i)) -= ends(i) - starts(i)
      i += 1
    }
    self
  }

  /** Total self time (ns) per (query, span name). */
  def selfByQuery: Map[(Int, String), Long] = {
    val self = selfNs
    val acc = mutable.HashMap.empty[(Int, String), Long]
    var i = 0
    while (i < size) {
      val key = (queries(i), names(i))
      acc(key) = acc.getOrElse(key, 0L) + self(i)
      i += 1
    }
    acc.toMap
  }

  /** Write every span as one JSON line: name, start/end (ns), parent, query. */
  def writeJsonLines(path: java.nio.file.Path): Unit = {
    Dirs.ensureParent(path)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      var i = 0
      while (i < size) {
        w.write(s"""{"id":$i,"name":"${names(i)}","start_ns":${starts(i)},"end_ns":${ends(i)},"parent":${parents(i)},"query":${queries(i)}}""")
        w.newLine()
        i += 1
      }
    } finally w.close()
  }
}

object Tracer {
  val off: Tracer = new Tracer {
    override def span[A](name: String)(body: => A): A = body
    override def query[A](id: Int)(body: => A): A = body
  }
}

object Dirs {
  def ensureParent(p: java.nio.file.Path): Unit =
    Option(p.toAbsolutePath.getParent).foreach(java.nio.file.Files.createDirectories(_))
}
