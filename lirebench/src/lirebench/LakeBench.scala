package lirebench

import java.nio.file.{Files, Path, Paths}

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core.distributed.{DistIndex, DistRebalancer}
import repro.data.{GroundTruth, VectorGen}
import repro.sim.StressSimulation.StressConfig

/** The Spark posting lake under shifted epochs: a closed loop whose each
  * epoch is a `deleteBatch` + `insertBatch` of 2% of the live set, then
  * `DistRebalancer.run()`, then one 50-query `search(...).collect()`.
  */
object LakeBench {
  val Name = "lake-shifted-epochs"

  /** The Table 3 stress settings (dim 16, 16 clusters, k 10, 16 probes,
    * LIRE 64 / 8 / 16 / 16) over a 4K base.
    */
  val Cfg: StressConfig = StressConfig(baseN = 4000)
  val UpdateRate = 0.02
  val QueriesPerEpoch = 50
  val RecallQueries = 50
  val BuildRepeats = 5

  /** Epoch wall time on the reference machine, and the epoch floor; see
    * [[EngineWorkload]]. An epoch's rebalance takes one, two or three
    * rounds of Spark jobs, so epoch times are bimodal and a median needs
    * several of them.
    */
  val EpochSeconds = 6.0
  val MinEpochs = 4
  val WarmUpVectors = 1000

  def epochs(seconds: Int): Int = math.max(MinEpochs, math.round(seconds / EpochSeconds).toInt)

  def run(lakeDir: String, seed: Long, seconds: Int, traced: Boolean): Report = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("lirebench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$lakeDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$lakeDir/warehouse")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.default.parallelism", cores.toString)
      .getOrCreate()
    val phases = if (traced) Some(new SparkPhases) else None
    phases.foreach(spark.sparkContext.addSparkListener)
    var report: Report = null
    try report = new LakeRun(spark, lakeDir, seed, seconds, phases).run()
    finally spark.stop() // drains the listener bus: every job event has been delivered
    phases.foreach { p =>
      report.check("listener_saw_every_job_end", p.allEnded)
      p.report(report)
    }
    report
  }

  /** Total size of the files under `dir`, in bytes. */
  def bytesUnder(dir: String): Long = {
    val root = Paths.get(dir)
    if (!Files.exists(root)) 0L
    else {
      val s = Files.walk(root)
      try s.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum()
      finally s.close()
    }
  }

  def deleteTree(dir: String): Unit = {
    val root = Paths.get(dir)
    if (Files.exists(root)) {
      val s = Files.walk(root)
      try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(Files.delete(_))
      finally s.close()
    }
  }
}

private final class LakeRun(
    spark: SparkSession,
    lakeDir: String,
    seed: Long,
    seconds: Int,
    phases: Option[SparkPhases],
) {
  import LakeBench._
  import spark.implicits._

  private val cfg = Cfg
  // Dataset, build and update trace are the stress simulation's own and the
  // same on every seed (see EngineBench); the seed draws the queries.
  private val baseMix = VectorGen.mixture(cfg.dim, cfg.nClusters, cfg.seed)
  private val pool = VectorGen.shifted(baseMix, cfg.seed + 1)
  private val base = VectorGen.draw(baseMix, cfg.baseN, 0, cfg.seed + 2)
  private val queryStream = seed * 1000003L // keeps the query streams of nearby seeds apart

  private val updateNanos = mutable.ArrayBuffer.empty[Long]
  private val rebalanceNanos = mutable.ArrayBuffer.empty[Long]
  private val searchNanos = mutable.ArrayBuffer.empty[Long]
  private var updateOps = 0L
  private var queries = 0L
  private val stats = mutable.Map.empty[String, Long].withDefaultValue(0L)

  /** Run `f` under Spark job group `name` when tracing; the listener files
    * the group's jobs under that phase.
    */
  private def phase[A](name: String)(f: => A): A = phases match {
    case None => f
    case Some(p) =>
      val sc = spark.sparkContext
      sc.setJobGroup(name, name)
      val ms0 = System.currentTimeMillis(); val n0 = System.nanoTime()
      try f
      finally {
        p.phaseEnded(name, ms0, System.currentTimeMillis(), System.nanoTime() - n0)
        sc.clearJobGroup()
      }
  }

  /** One built lake and the workload's view of its live set. */
  private final class Lake(val idx: DistIndex, vectors: Seq[VectorGen.Vec]) {
    val reb = new DistRebalancer(idx)
    val live: mutable.LongMap[Array[Float]] = mutable.LongMap.from(vectors.map(v => v.id -> v.vec))
    var nextId: Long = cfg.baseN.toLong
  }

  private def build(dir: String, vectors: Seq[VectorGen.Vec], traced: Boolean): Lake = {
    val df = VectorGen.toDf(spark, vectors)
    val idx =
      if (traced) phase("build")(DistIndex.build(spark, dir, df, cfg.dim, cfg.lire, cfg.seed))
      else DistIndex.build(spark, dir, df, cfg.dim, cfg.lire, cfg.seed)
    new Lake(idx, vectors)
  }

  private def searchIds(idx: DistIndex, qs: Seq[Array[Float]], timed: Boolean): Map[Long, Seq[Long]] = {
    val qdf = qs.zipWithIndex.map { case (q, i) => (i.toLong, q) }.toDF("qid", "qvec")
    val t0 = System.nanoTime()
    val rows = if (timed) phase("search")(idx.search(qdf, cfg.k, cfg.probes).collect())
      else idx.search(qdf, cfg.k, cfg.probes).collect()
    if (timed) { searchNanos += System.nanoTime() - t0; queries += qs.length }
    rows.map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSeq
      .groupBy(_._1).view.mapValues(_.sortBy(_._3).map(_._2)).toMap
  }

  private def epoch(lake: Lake, updateSeed: Long, querySeed: Long, report: Report, timed: Boolean): Unit = {
    import lake.{idx, live, reb}
    val (dels, ins) = VectorGen.epoch(live.keys.toIndexedSeq.sorted, pool, UpdateRate, lake.nextId, updateSeed)
    val insDf = VectorGen.toDf(spark, ins)
    val t0 = System.nanoTime()
    if (timed) phase("insert") { idx.deleteBatch(dels); idx.insertBatch(insDf) }
    else { idx.deleteBatch(dels); idx.insertBatch(insDf) }
    val t1 = System.nanoTime()
    val st = if (timed) phase("rebalance")(reb.run()) else reb.run()
    val t2 = System.nanoTime()
    dels.foreach(live.remove)
    ins.foreach(v => live(v.id) = v.vec)
    lake.nextId += ins.length
    report.attempt(dels.length + ins.length)
    report.check("posting_over_split_limit",
      Checks.oversized(idx.rawSizes().values, cfg.lire.splitLimit) == 0)
    if (timed) {
      updateNanos += t2 - t0
      rebalanceNanos += t2 - t1
      updateOps += dels.length + ins.length
      stats("rounds") += st.rounds; stats("splits") += st.splits
      stats("gc_only_splits") += st.gcOnlySplits; stats("merges") += st.merges
      stats("reassign.checked") += st.reassignChecked; stats("reassign.moved") += st.reassignMoved
      Console.err.println(f"lake epoch ${updateNanos.length}: update ${(t1 - t0) / 1e9}%.2f s, " +
        f"rebalance ${(t2 - t1) / 1e9}%.2f s in ${st.rounds} rounds, ${st.splits} splits")
    }

    val qs = VectorGen.queries(pool, QueriesPerEpoch, querySeed)
    val got = searchIds(idx, qs, timed)
    val tombstoned = idx.dirtyStates.collect { case (vid, (_, true)) => vid }.toSet
    qs.indices.foreach { i =>
      report.check("search_result", Checks.searchResult(
        got.getOrElse(i.toLong, Seq.empty), cfg.k, live.contains, id => !tombstoned(id)))
    }
  }

  def run(): Report = {
    val report = new Report

    // Untimed warm-up: a cold build of a small lake and one epoch on it, so
    // Spark's code generation and the JIT are warm before anything is timed.
    locally {
      val warm = build(s"$lakeDir/warm", base.take(WarmUpVectors), traced = false)
      epoch(warm, cfg.seed + 50000, queryStream + 50000, new Report, timed = false)
      deleteTree(warm.idx.rootDir)
    }

    val buildSecs = mutable.ArrayBuffer.empty[Double]
    var lake: Lake = null
    (1 to BuildRepeats).foreach { i =>
      if (lake != null) deleteTree(lake.idx.rootDir)
      System.gc()
      val t0 = System.nanoTime()
      // Only the build that is kept is attributed to the `build` phase.
      lake = build(s"$lakeDir/build-$i", base, traced = i == BuildRepeats)
      buildSecs += (System.nanoTime() - t0) / 1e9
    }
    val idx = lake.idx
    report.check("built_postings_over_split_limit",
      Checks.oversized(idx.rawSizes().values, cfg.lire.splitLimit) == 0)

    val commits0 = idx.commits
    System.gc()
    (1 to epochs(seconds)).foreach(ep => epoch(lake, cfg.seed + 100 + ep, queryStream + ep, report, timed = true))
    val commits = idx.commits - commits0

    report.put("setup_s", Stats.median(buildSecs.toSeq), "s", buildSecs.length)
    report.put("update_per_s", updateOps / (updateNanos.sum / 1e9), "vectors/s", updateOps)
    report.put("rebalance_p50_s", Stats.median(rebalanceNanos.map(_ / 1e9).toSeq), "s", rebalanceNanos.length)
    report.put("search_qps", queries / (searchNanos.sum / 1e9), "queries/s", queries)
    // One batched Spark job answers all queries of an epoch, so there is
    // no per-query time: both percentiles report the median per-query
    // share of a batch, over the epochs' batches.
    val perQueryMs = searchNanos.map(_ / 1e6 / QueriesPerEpoch).toSeq
    report.put("search_p50_ms", Stats.median(perQueryMs), "ms", perQueryMs.length)
    report.put("search_p99_ms", Stats.median(perQueryMs), "ms", perQueryMs.length)

    val qs = VectorGen.queries(pool, RecallQueries, queryStream)
    val got = searchIds(idx, qs, timed = false)
    val data = lake.live.toSeq
    val recalls = qs.indices.map { i =>
      GroundTruth.recall(got.getOrElse(i.toLong, Seq.empty), GroundTruth.topK(qs(i), data, cfg.k))
    }
    report.put("recall_at_10", recalls.sum / recalls.length, "ratio", recalls.length)
    val onDisk = bytesUnder(idx.rootDir)
    report.put("space_amp", onDisk.toDouble / (lake.live.size.toLong * 4 * cfg.dim), "ratio")
    report.put("heap_mb", Heap.usedMb(), "MiB")

    if (phases.isDefined) {
      Seq("rounds", "splits", "gc_only_splits", "merges", "reassign.checked", "reassign.moved")
        .foreach(k => report.put(s"lake.$k", stats(k).toDouble, "count"))
      report.put("lake.commits", commits.toDouble, "count")
      report.put("lake.bytes_on_disk_end", onDisk.toDouble, "bytes")
      report.put("lake.postings_end", idx.centroidSnapshot.length.toDouble, "count")
      val tombstones = idx.dirtyStates.count(_._2._2)
      report.put("versions.size_end", (idx.liveCount + tombstones).toDouble, "count")
      report.put("versions.tombstones_end", tombstones.toDouble, "count")
    }
    deleteTree(idx.rootDir)
    report
  }
}
