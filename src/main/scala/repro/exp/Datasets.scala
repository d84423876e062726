package repro.exp

import org.apache.spark.sql.SparkSession
import repro.gen.GraphGen
import repro.graph.{Peeler, WGraph}
import repro.spark.{PageRankWeights, SparkGraphStore}

import scala.collection.concurrent.TrieMap

/** One benchmark stand-in graph (DESIGN.md §3). */
final case class GraphSpec(name: String, paperName: String, scale: Int,
                           edgeFactor: Double, seed: Long)

/** Builds and caches the benchmark graphs: RMAT edges (Spark dataflow) →
  * GraphX PageRank weights → [[SparkGraphStore]] → local [[WGraph]]. One
  * build per JVM; every bench suite shares the cache.
  */
object Datasets {

  /** Scaled-down stand-ins for the paper's Table 1 graphs, in the paper's
    * size order. UK is dropped (duplicates Arabic/Twitter, see DESIGN.md).
    */
  val specs: Seq[GraphSpec] = Seq(
    GraphSpec("email-s",   "Email",       11,  5.5, 11L),
    GraphSpec("youtube-s", "Youtube",     14,  3.0, 17L),
    GraphSpec("wiki-s",    "Wiki",        13, 15.0, 23L),
    GraphSpec("lj-s",      "Livejournal", 14,  9.5, 31L),
    GraphSpec("orkut-s",   "Orkut",       13, 33.0, 37L),
    GraphSpec("arabic-s",  "Arabic",      15, 13.0, 41L),
    GraphSpec("twitter-s", "Twitter",     14, 26.0, 43L),
  )

  /** Graphs small enough for the quadratic / Σ-component baselines
    * (OnlineAll, Backward, truss global search); the paper likewise omits
    * OnlineAll on its largest graphs.
    */
  val smallNames: Seq[String] = Seq("email-s", "youtube-s", "wiki-s", "lj-s", "orkut-s")

  private val storeCache = TrieMap.empty[String, SparkGraphStore]
  private val localCache = TrieMap.empty[String, WGraph]

  def spec(name: String): GraphSpec = specs.find(_.name == name)
    .getOrElse(throw new NoSuchElementException(s"unknown bench graph $name"))

  /** The Spark-resident store for `name` (built once per JVM). */
  def store(spark: SparkSession, name: String): SparkGraphStore =
    storeCache.getOrElseUpdate(name, {
      val s = spec(name)
      val edges = GraphGen.rmat(spark, s.scale, s.edgeFactor, s.seed)
      val weights = PageRankWeights.compute(spark, edges)
      SparkGraphStore.build(spark, edges, weights)
    })

  /** The local weight-ranked graph for `name` (built once per JVM). */
  def graph(spark: SparkSession, name: String): WGraph =
    localCache.getOrElseUpdate(name, store(spark, name).toLocal)

  /** The DBLP-like case-study graph (Eval-IX): planted communities with
    * PageRank weights, roughly the published co-author graph's 1.7K scale.
    */
  def dblp(spark: SparkSession): WGraph =
    localCache.getOrElseUpdate("dblp-s", {
      val edges = GraphGen.plantedCommunities(spark, nCommunities = 60,
        baseSize = 90, intraDeg = 6, interEdges = 700, seed = 7L)
      val weights = PageRankWeights.compute(spark, edges)
      val store = SparkGraphStore.build(spark, edges, weights)
      try store.toLocal finally store.unpersist()
    })

  /** Weight-banded block graph for the non-containment experiment: every
    * dense block sits in its own weight band, so the graph carries many NC
    * communities like the paper's real graphs (see GraphGen doc).
    */
  def bands(spark: SparkSession): WGraph =
    localCache.getOrElseUpdate("bands-s",
      GraphGen.weightBandedBlocks(nBlocks = 40, blockSize = 24,
        intraDeg = 7, interTotal = 15, seed = 13L))

  /** γ_max: the largest γ with a non-empty γ-core, i.e. the maximum coreness
    * (0 for an empty graph). Sweeps skip every γ above it, as the paper caps
    * Email at γ = 40. γ-cores shrink as γ grows, so a binary search over
    * `[0, max degree]` finds it in about log₂(max degree) peels.
    */
  def gammaMax(g: WGraph): Int = {
    def nonEmptyCore(gamma: Int): Boolean = {
      val peeler = new Peeler(g, g.n, gamma)
      peeler.reduceToCore()
      peeler.aliveCount > 0
    }
    var lo = 0 // the 0-core is every vertex
    var hi = (0 until g.n).foldLeft(0)((d, u) => math.max(d, g.degree(u)))
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (nonEmptyCore(mid)) lo = mid else hi = mid - 1
    }
    lo
  }
}
