package repro.spark

import org.apache.spark.sql.DataFrame

/** Relational views of a [[SparkGraphStore]], read by the DuckDB-oracle
  * tests: built from the store's driver arrays and packed edges on each call,
  * not cached.
  */
object StoreViews {

  /** (id, weight, rank). */
  def vertices(store: SparkGraphStore): DataFrame = {
    import store.spark.implicits._
    store.origId.indices.map(r => (store.origId(r), store.weights(r), r)).toDF("id", "weight", "rank")
  }

  /** (src, dst, srcRank, dstRank, maxRank) with src < dst. */
  def edges(store: SparkGraphStore): DataFrame = {
    import store.spark.implicits._
    val id = store.origId // a local, so the task closure does not capture the store
    store.packed.flatMap(_.iterator.map { e =>
      val hi = (e >>> 32).toInt
      val lo = e.toInt
      if (id(lo) < id(hi)) (id(lo), id(hi), lo, hi, hi) else (id(hi), id(lo), hi, lo, hi)
    }).toDF("src", "dst", "srcRank", "dstRank", "maxRank")
  }
}
