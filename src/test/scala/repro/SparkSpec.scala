package repro

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). `autoBroadcastJoinThreshold = -1` turns off Spark's automatic
  * broadcast joins, so a DataFrame join a test adds is planned the same
  * whatever its table sizes (the repository's own code runs none). The
  * lake's version map reaches executors as an explicit broadcast variable,
  * which the setting does not touch.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** `body`'s result and the number of Spark jobs it launched, counted
    * under a job group of its own. The status tracker learns of jobs from
    * the listener bus, asynchronously but in order, so a marker job run in
    * a second group after `body` is waited for before counting.
    */
  def countJobs[T](body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val group = s"count-jobs-${java.util.UUID.randomUUID}"
    val out = inGroup(group)(body)
    awaitMarker(group, sc.statusTracker.getJobIdsForGroup(_).nonEmpty)
    (out, sc.statusTracker.getJobIdsForGroup(group).length)
  }

  /** `body`'s result and the description (`setJobDescription`, null when
    * unset) of every Spark job it launched, in launch order, run under a job
    * group of its own. `body` starts with the group's name as its job
    * description, so a job that sets none reports that name.
    */
  def jobDescriptions[T](body: => T): (T, Seq[String]) = {
    val (out, props) = jobProperties(body)
    (out, props.map(_.getProperty("spark.job.description")))
  }

  /** `body`'s result and the local properties of every Spark job it
    * launched, in launch order, run under a job group of its own (see
    * [[jobDescriptions]]).
    */
  def jobProperties[T](body: => T): (T, Seq[java.util.Properties]) = {
    val sc = spark.sparkContext
    val group = s"job-properties-${java.util.UUID.randomUUID}"
    val started = new java.util.concurrent.ConcurrentLinkedQueue[java.util.Properties]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = Option(e.properties).foreach(started.add)
    }
    def of(g: String) = started.asScala.filter(_.getProperty("spark.jobGroup.id") == g)
    sc.addSparkListener(listener)
    try {
      val out = inGroup(group)(body)
      awaitMarker(group, of(_).nonEmpty)
      (out, of(group).toSeq)
    } finally sc.removeSparkListener(listener)
  }

  /** `body`'s result and the shuffle bytes its Spark jobs wrote: the sum of
    * `shuffleWriteMetrics.bytesWritten` over the tasks of every stage of
    * every job it launched, run under a job group of its own.
    */
  def shuffleBytesWritten[T](body: => T): (T, Long) = {
    val sc = spark.sparkContext
    val group = s"shuffle-bytes-${java.util.UUID.randomUUID}"
    val groups = java.util.concurrent.ConcurrentHashMap.newKeySet[String]()
    val stages = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
    val bytes = new java.util.concurrent.atomic.AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
          if (g == group) e.stageIds.foreach(stages.add)
          groups.add(g)
        }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages.contains(e.stageId) && e.taskMetrics != null)
          bytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
    sc.addSparkListener(listener)
    try {
      val out = inGroup(group)(body)
      awaitMarker(group, groups.contains)
      (out, bytes.get)
    } finally sc.removeSparkListener(listener)
  }

  /** `f` run under job group `g`, whose description is `g` too. */
  private def inGroup[U](g: String)(f: => U): U = {
    val sc = spark.sparkContext
    sc.setJobGroup(g, g)
    try f finally sc.clearJobGroup()
  }

  /** Run a marker job in group `<group>-marker` and wait until `seen`
    * reports it: listeners receive job events in order, so every job of
    * `group` has been seen by then.
    */
  private def awaitMarker(group: String, seen: String => Boolean): Unit = {
    val marker = s"$group-marker"
    inGroup(marker)(spark.sparkContext.parallelize(Seq(1), 1).count())
    val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
    while (!seen(marker)) {
      assert(System.nanoTime() < deadline, "the marker job never reached the listener")
      Thread.sleep(10)
    }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
