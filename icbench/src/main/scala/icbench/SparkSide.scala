package icbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

/** Jobs and tasks per Spark job group, counted by a listener. The bench tags
  * each query (and, in the replay, each round) with `setJobGroup`, so the
  * counts attribute Spark's work to the caller's queries.
  */
final class JobCounter extends SparkListener {
  private val jobs = new ConcurrentHashMap[String, AtomicLong]()
  private val tasks = new ConcurrentHashMap[String, AtomicLong]()
  private val stageGroup = new ConcurrentHashMap[Int, String]()

  private def bump(m: ConcurrentHashMap[String, AtomicLong], group: String, by: Long): Unit =
    m.computeIfAbsent(group, _ => new AtomicLong()).addAndGet(by)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")
    bump(jobs, group, 1)
    e.stageIds.foreach(s => stageGroup.put(s, group))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    bump(tasks, stageGroup.getOrDefault(e.stageId, ""), 1)

  private def sum(m: ConcurrentHashMap[String, AtomicLong], pred: String => Boolean): Long = {
    var s = 0L
    m.forEach((g, v) => if (pred(g)) s += v.get)
    s
  }

  def jobsWhere(pred: String => Boolean): Long = sum(jobs, pred)
  def tasksWhere(pred: String => Boolean): Long = sum(tasks, pred)
}

object SparkSide {

  /** A local-mode session whose scratch space stays under `workDir`. Two
    * cores: within `nproc` of a small host, with the query thread's core to
    * spare. The status store keeps few finished jobs, so the heap it holds
    * does not grow with the job count into `setup_heap_mb`.
    */
  def session(workDir: java.nio.file.Path): SparkSession = {
    val s = SparkSession.builder()
      .appName("icbench")
      .master("local[2]")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.retainedJobs", "10")
      .config("spark.ui.retainedStages", "10")
      .config("spark.ui.retainedTasks", "100")
      .config("spark.sql.ui.retainedExecutions", "10")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "2")
      .config("spark.default.parallelism", "2")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Wait until the listener bus has delivered every event posted so far. */
  def drainListener(spark: SparkSession): Unit = {
    // The bus is internal to Spark, so it is reached by reflection.
    val bus = classOf[org.apache.spark.SparkContext].getMethod("listenerBus")
      .invoke(spark.sparkContext)
    bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
  }

  /** Tag the Spark jobs that the current thread starts next. */
  def tag(spark: SparkSession, group: String, description: String): Unit = {
    spark.sparkContext.setJobGroup(group, description)
    spark.sparkContext.setJobDescription(description)
  }
}
