package lirebench

import scala.collection.mutable

import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

/** Attributes Spark work to the lake's public calls using only Spark's
  * public API: the benchmark runs each call under a job group named after
  * its phase (`build`, `insert`, `rebalance`, `search`), and this listener
  * sums jobs, stages, task time and bytes per group. Rebalance jobs are
  * further split by the `DistRebalancer` / `DistIndex` method in their
  * call-site stack.
  *
  * Listener events arrive asynchronously; totals are read only after the
  * SparkContext has stopped, which delivers every queued event first.
  */
final class SparkPhases extends SparkListener {
  import SparkPhases._

  /** What one job did. `site` is its call-site stack. Spark runs the jobs
    * of a Dataset action on its own threads, so their stacks hold no repro
    * frame; those jobs take the call site their SQL execution recorded when
    * the action was called.
    */
  private final class Job(val group: String, val execution: Option[String], val site: String, val start: Long) {
    var end = -1L; var stages = 0L; var taskMs = 0L
    var bytesRead = 0L; var bytesWritten = 0L; var shuffleBytes = 0L
  }

  private val jobs = mutable.LinkedHashMap.empty[Int, Job]
  private val stageJob = mutable.Map.empty[Int, Job]
  private val executionSites = mutable.Map.empty[String, String]
  // phase -> (start ms, end ms, wall ns) of each benchmark call
  private val calls = mutable.Map.empty[String, mutable.ArrayBuffer[(Long, Long, Long)]]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    props.flatMap(p => Option(p.getProperty(JobGroupProperty))).foreach { group =>
      val job = new Job(group, props.flatMap(p => Option(p.getProperty(ExecutionIdProperty))),
        e.stageInfos.map(_.details).mkString("\n"), e.time)
      jobs(e.jobId) = job
      e.stageIds.foreach(s => stageJob(s) = job)
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart => synchronized(executionSites(s.executionId.toString) = s.details)
    case _ =>
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.end = e.time)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageJob.get(e.stageInfo.stageId).foreach(_.stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) stageJob.get(e.stageId).foreach { j =>
      j.taskMs += m.executorRunTime
      j.bytesRead += m.inputMetrics.bytesRead
      j.bytesWritten += m.outputMetrics.bytesWritten
      j.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** The benchmark's own record of one call it ran under `phase`. */
  def phaseEnded(phase: String, startMs: Long, endMs: Long, wallNanos: Long): Unit = synchronized {
    calls.getOrElseUpdate(phase, mutable.ArrayBuffer.empty) += ((startMs, endMs, wallNanos))
  }

  /** True when every job seen starting has also been seen ending. */
  def allEnded: Boolean = synchronized(jobs.valuesIterator.forall(_.end >= 0))

  def report(r: Report): Unit = synchronized {
    Phases.foreach { p =>
      val js = jobs.values.filter(_.group == p).toSeq
      val intervals = js.map(j => (j.start, j.end))
      val cs = calls.getOrElse(p, mutable.ArrayBuffer.empty)
      // Driver time: wall time of each call not covered by any of its jobs.
      val driver = cs.map { case (s, e, ns) =>
        math.max(0.0, ns / 1e9 - Intervals.unionLength(intervals, s, e) / 1e3)
      }.sum
      r.put(s"lake.$p.s", cs.map(_._3).sum / 1e9, "s", cs.length)
      r.put(s"lake.$p.jobs", js.length.toDouble, "count")
      r.put(s"lake.$p.stages", js.map(_.stages).sum.toDouble, "count")
      r.put(s"lake.$p.task_s", js.map(_.taskMs).sum / 1e3, "s")
      r.put(s"lake.$p.driver_s", driver, "s")
      r.put(s"lake.$p.bytes_written", js.map(_.bytesWritten).sum.toDouble, "bytes")
      r.put(s"lake.$p.bytes_read", js.map(_.bytesRead).sum.toDouble, "bytes")
      r.put(s"lake.$p.shuffle_bytes", js.map(_.shuffleBytes).sum.toDouble, "bytes")
    }
    val rebalance = jobs.values.filter(_.group == "rebalance").toSeq
    val sub = rebalance.groupBy { j =>
      val own = subPhase(j.site)
      if (own != Other) own
      else j.execution.flatMap(executionSites.get).map(subPhase).getOrElse(Other)
    }
    (SubPhases :+ Other).foreach { sp =>
      val js = sub.getOrElse(sp, Seq.empty)
      r.put(s"lake.rebalance.$sp.jobs", js.length.toDouble, "count")
      r.put(s"lake.rebalance.$sp.s",
        Intervals.unionLength(js.map(j => (j.start, j.end)), Long.MinValue, Long.MaxValue) / 1e3, "s")
    }
  }
}

object SparkPhases {
  val JobGroupProperty = "spark.jobGroup.id"
  val ExecutionIdProperty = "spark.sql.execution.id"
  val Other = "other"
  val Phases: Seq[String] = Seq("build", "insert", "rebalance", "search")
  val SubPhases: Seq[String] = Seq("split", "merge", "reassign", "sizes")

  /** Rebalance sub-phase of a job: the innermost frame of its call-site
    * stack that is one of the named `DistRebalancer` / `DistIndex` methods.
    */
  def subPhase(callSite: String): String =
    callSite.linesIterator.flatMap { line =>
      if (line.contains("DistRebalancer") && line.contains("applyReassigns")) Some("reassign")
      else if (line.contains("DistIndex") && (line.contains("rawSizes") || line.contains("liveSizes"))) Some("sizes")
      else if (line.contains("DistRebalancer") && line.contains("splitRound")) Some("split")
      else if (line.contains("DistRebalancer") && line.contains("mergeRound")) Some("merge")
      else None
    }.nextOption().getOrElse(Other)
}
