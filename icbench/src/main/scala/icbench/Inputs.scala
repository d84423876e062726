package icbench

import java.util.SplittableRandom

/** An undirected simple edge list over vertex ids `0 until 2^scale`, with the
  * edge-induced vertex set. Edges are canonical (`src < dst`), distinct and
  * sorted.
  */
final class EdgeList(val src: Array[Long], val dst: Array[Long], val vertices: Array[Long]) {
  def m: Int = src.length
  def n: Int = vertices.length
}

/** Bench-side input generation. Everything here is a pure function of its
  * arguments, so one seed always yields the same graph, weights and queries.
  */
object Inputs {

  /** Edges per vertex id of every RMAT graph of the benchmark. */
  val EdgeFactor = 16.0

  /** RMAT edges with the same per-edge random streams as
    * `repro.gen.GraphGen.rmat` (quadrant probabilities 0.57/0.19/0.19), so a
    * local workload and the Spark pipeline see the same graph for the same
    * (scale, edgeFactor, seed). Runs on one thread without Spark.
    */
  def rmat(scale: Int, edgeFactor: Double, seed: Long): EdgeList = {
    val a = 0.57; val b = 0.19; val c = 0.19
    val mTarget = math.max(1L, ((1L << scale) * edgeFactor).toLong).toInt
    val packed = new Array[Long](mTarget)
    var len = 0
    var i = 0
    while (i < mTarget) {
      val rng = new SplittableRandom(seed * 0x9E3779B97F4A7C15L + i)
      var s = 0L
      var d = 0L
      var bit = scale - 1
      while (bit >= 0) {
        val r = rng.nextDouble()
        if (r < a) ()
        else if (r < a + b) d |= 1L << bit
        else if (r < a + b + c) s |= 1L << bit
        else { s |= 1L << bit; d |= 1L << bit }
        bit -= 1
      }
      if (s != d) {
        packed(len) = (math.min(s, d) << 32) | math.max(s, d)
        len += 1
      }
      i += 1
    }
    val edges = distinctSorted(packed, len)
    val src = edges.map(_ >>> 32)
    val dst = edges.map(_ & 0xFFFFFFFFL)
    val ends = new Array[Long](2 * edges.length)
    System.arraycopy(src, 0, ends, 0, src.length)
    System.arraycopy(dst, 0, ends, src.length, dst.length)
    new EdgeList(src, dst, distinctSorted(ends, ends.length))
  }

  /** Sorted distinct values of `xs[0, len)`. */
  private def distinctSorted(xs: Array[Long], len: Int): Array[Long] = {
    java.util.Arrays.sort(xs, 0, len)
    var out = 0
    var i = 0
    while (i < len) {
      if (out == 0 || xs(out - 1) != xs(i)) { xs(out) = xs(i); out += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(xs, out)
  }

  /** PageRank over the undirected graph (each edge counts both ways), damping
    * 0.85, `iterations` synchronous steps from 1.0: the unnormalised
    * recurrence GraphX's `staticPageRank` uses. Indexed like `el.vertices`.
    */
  def pageRank(el: EdgeList, iterations: Int = 20, damping: Double = 0.85): Array[Double] = {
    val n = el.n
    val su = el.src.map(id => java.util.Arrays.binarySearch(el.vertices, id))
    val dv = el.dst.map(id => java.util.Arrays.binarySearch(el.vertices, id))
    val deg = new Array[Int](n)
    var e = 0
    while (e < el.m) { deg(su(e)) += 1; deg(dv(e)) += 1; e += 1 }
    var pr = Array.fill(n)(1.0)
    var it = 0
    while (it < iterations) {
      val next = new Array[Double](n)
      e = 0
      while (e < el.m) {
        val x = su(e); val y = dv(e)
        next(y) += pr(x) / deg(x)
        next(x) += pr(y) / deg(y)
        e += 1
      }
      var v = 0
      while (v < n) { next(v) = (1 - damping) + damping * next(v); v += 1 }
      pr = next
      it += 1
    }
    pr
  }

  /** Uniform random weights in [0, 1), unrelated to structure. */
  def uniformWeights(n: Int, seed: Long): Array[Double] = {
    val rng = new SplittableRandom(seed ^ 0x5DEECE66DL)
    Array.fill(n)(rng.nextDouble())
  }
}

/** One query of the fixed list. `op` is one of `topk`, `progressive` and
  * `truss` (see [[Ops]]).
  */
final case class Query(id: Int, op: String, k: Int, gamma: Int) {
  def key: (String, Int, Int) = (op, k, gamma)
}
