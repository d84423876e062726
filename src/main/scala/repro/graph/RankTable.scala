package repro.graph

import scala.collection.mutable

/** The paper's §3.1 pre-sort, done once for [[WGraph.apply]],
  * `SparkGraphStore.build` and [[WGraph.rankOf]]: ids and weights by rank,
  * and id → rank. Rank 0 is the highest weight; ranks follow
  * `java.lang.Double.compare` descending, then id ascending, so 0.0 ranks
  * above −0.0. The id map is not serialised: a Spark task that packs edges
  * gets the two arrays and rebuilds it.
  */
final class RankTable private[graph] (val ids: Array[Long], val weights: Array[Double]) extends Serializable {

  @transient private lazy val byId: mutable.LongMap[Int] = {
    val m = new mutable.LongMap[Int](ids.length * 2)
    for (r <- ids.indices) {
      if (m.contains(ids(r))) throw new IllegalArgumentException(s"vertex id ${ids(r)} appears twice in the weight table")
      m(ids(r)) = r
    }
    m
  }

  private def find(id: Long): Int = byId.getOrElse(id, -1)

  /** The rank of `id`; throws `NoSuchElementException` if it has none. */
  def rankOf(id: Long): Int = {
    val r = find(id)
    if (r < 0) throw new NoSuchElementException(s"vertex $id has no rank")
    r
  }

  /** [[WGraph.pack]] of the ranks of ids `a != b`. */
  def pack(a: Long, b: Long): Long = {
    val ra = find(a)
    val rb = find(b)
    if (ra < 0 || rb < 0)
      throw new IllegalArgumentException(s"edge ($a,$b) references vertex ${if (ra < 0) a else b}, which has no weight")
    WGraph.pack(ra, rb)
  }
}

object RankTable {

  /** Rank vertex `ids(i)` of weight `weights(i)`; rejects NaN weights and duplicate ids. */
  def apply(ids: Array[Long], weights: Array[Double]): RankTable = {
    for (i <- weights.indices if weights(i).isNaN)
      throw new IllegalArgumentException(s"vertex ${ids(i)} has a NaN weight")
    val order = Array.range(0, ids.length).sortWith { (a, b) =>
      val c = java.lang.Double.compare(weights(b), weights(a))
      c < 0 || c == 0 && ids(a) < ids(b)
    }
    val t = new RankTable(order.map(ids), order.map(weights))
    t.byId // the duplicate-id check
    t
  }
}
