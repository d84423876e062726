package repro.gen

import repro.graph.WGraph

import scala.collection.mutable
import scala.util.Random

/** Small deterministic local graphs for the tests, built without a
  * SparkSession so that algorithm tests stay fast.
  */
object LocalGen {

  /** `n` vertices with distinct shuffled weights, ~`avgDeg·n/2` random
    * edges.
    */
  def localRandom(n: Int, avgDeg: Double, seed: Long): WGraph = {
    val rnd = new Random(seed)
    val weights = rnd.shuffle((1 to n).toVector).map(_.toDouble)
    val ids = (0L until n.toLong)
    val m = math.max(0, (avgDeg * n / 2).toInt)
    val edges = mutable.LinkedHashSet.empty[(Long, Long)]
    var tries = 0
    while (edges.size < m && tries < 10 * m + 100) {
      val a = rnd.nextInt(n).toLong
      val b = rnd.nextInt(n).toLong
      if (a != b) edges += ((math.min(a, b), math.max(a, b)))
      tries += 1
    }
    WGraph(ids.map(i => i -> weights(i.toInt)).toSeq, edges)
  }

  /** A power-law-ish graph: preferential-attachment flavour so that
    * γ-cores are non-trivial for moderate γ (plain G(n,p) cores are flat).
    */
  def localPowerLaw(n: Int, edgesPerVertex: Int, seed: Long): WGraph = {
    val rnd = new Random(seed)
    val weights = rnd.shuffle((1 to n).toVector).map(_.toDouble)
    val targets = mutable.ArrayBuffer.empty[Int] // repeated by degree
    val edges = mutable.LinkedHashSet.empty[(Long, Long)]
    for (v <- 0 until n) {
      val deg = math.min(v, edgesPerVertex)
      for (_ <- 0 until deg) {
        val u = targets(rnd.nextInt(targets.size))
        if (u != v) edges += ((math.min(u, v).toLong, math.max(u, v).toLong))
        targets += u
      }
      if (v > 0 && deg == 0) { // ensure connectivity of early vertices
        val u = rnd.nextInt(v)
        edges += ((math.min(u, v).toLong, math.max(u, v).toLong))
        targets += u
      }
      targets += v
    }
    WGraph((0L until n.toLong).map(i => i -> weights(i.toInt)), edges)
  }
}
