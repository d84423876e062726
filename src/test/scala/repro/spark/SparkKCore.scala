package repro.spark

import org.apache.spark.sql.functions._
import org.apache.spark.sql.DataFrame

/** Distributed γ-core via iterative DataFrame peeling.
  *
  * Each round computes vertex degrees with an aggregation and drops every
  * edge incident to a vertex of degree < γ with anti-joins, until a
  * fixpoint. A distributed cross-check of the local peeler.
  */
object SparkKCore {

  /** Vertex ids in the γ-core of the given simple undirected edge list. */
  def coreVertices(edges: DataFrame, gamma: Int): DataFrame = {
    var e = edges.select("src", "dst").localCheckpoint()
    var remaining = e.count()
    var converged = remaining == 0
    while (!converged) {
      val deg = e.select(col("src").as("v"))
        .unionAll(e.select(col("dst").as("v")))
        .groupBy("v").count()
      val bad = deg.filter(col("count") < gamma).select("v")
      if (bad.isEmpty) converged = true
      else {
        e = e
          .join(bad.withColumnRenamed("v", "src"), Seq("src"), "left_anti")
          .join(bad.withColumnRenamed("v", "dst"), Seq("dst"), "left_anti")
          .select("src", "dst")
          .localCheckpoint() // cut lineage: the loop otherwise stacks plans
        val now = e.count()
        converged = now == remaining || now == 0
        remaining = now
      }
    }
    e.select(col("src").as("v")).unionAll(e.select(col("dst").as("v"))).distinct()
  }
}
