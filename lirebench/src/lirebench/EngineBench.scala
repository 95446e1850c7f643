package lirebench

import scala.collection.mutable

import repro.centroid.BruteForceCentroidIndex
import repro.core.engine.{EngineStats, SpFreshEngine}
import repro.data.{GroundTruth, VectorGen}
import repro.sim.SimConfig

/** A closed-loop single-node workload: one client issues, per epoch, a
  * delete + insert batch of `updateRate` of the live set, waits for
  * `drainJobs()`, then runs `searchesPerEpoch` searches.
  *
  * @param epochSeconds wall time of one epoch of one replica on the
  *                     reference machine; `--seconds` is turned into a
  *                     fixed epoch count with it, so every run of one
  *                     setting does the same work
  * @param minEpochs    floor that gives the search p99 its ten samples
  */
final case class EngineWorkload(
    name: String,
    shifted: Boolean,
    updateRate: Double,
    searchesPerEpoch: Int,
    epochSeconds: Double,
    minEpochs: Int,
    warmEpochs: Int,
) {
  def epochs(seconds: Int): Int =
    math.max(minEpochs, math.round(seconds / (epochSeconds * EngineBench.Replicas)).toInt)
}

object EngineBench {

  /** The Fig 7 simulation's settings (dim 32, 16 clusters, k 10, 16 probes,
    * LIRE 128 / 16 / 16 / 16) over its 10K base.
    */
  val Sim: SimConfig = SimConfig()

  /** Identical engines, built from the same base and driven one after
    * another through the same trace and queries. Their builds are the
    * `setup_s` samples and their timings pool, so a run takes three times
    * the samples of one engine's trace, at different moments, while the
    * index state each sample sees stays that of the trace.
    */
  val Replicas = 3
  val RecallQueries = 100

  val Churn: EngineWorkload = EngineWorkload("engine-churn-shifted", shifted = true,
    updateRate = 0.01, searchesPerEpoch = 100, epochSeconds = 0.55, minEpochs = 10, warmEpochs = 2)
  val Stationary: EngineWorkload = EngineWorkload("engine-search-stationary", shifted = false,
    updateRate = 0.002, searchesPerEpoch = 1000, epochSeconds = 1.1, minEpochs = 1, warmEpochs = 1)

  def run(w: EngineWorkload, seed: Long, seconds: Int, traced: Boolean): Report = {
    val report = new Report
    val t00 = System.nanoTime()
    def progress(what: String): Unit = Console.err.println(f"${w.name}: $what at ${(System.nanoTime() - t00) / 1e9}%.1f s")
    // The dataset, its built index and the update trace are the simulation's
    // own and the same on every seed, as the paper replays fixed traces: a
    // run then repeats the same rebuilder work, and the seed draws the
    // queries.
    val baseMix = VectorGen.mixture(Sim.dim, Sim.nClusters, Sim.seed)
    val pool = if (w.shifted) VectorGen.shifted(baseMix, Sim.seed + 1) else baseMix
    val base = VectorGen.draw(baseMix, Sim.baseN, 0, Sim.seed + 2).map(v => (v.id, v.vec))
    val queryStream = seed * 1000003L // keeps the query streams of nearby seeds apart

    // In the traced run every replica is traced, so that both runs time the
    // same code; the per-layer figures are those of replica 0.
    def newTracer(): Option[Tracer] = if (traced) Some(new Tracer) else None
    def newEngine(tracer: Option[Tracer]): SpFreshEngine = tracer match {
      case None    => new SpFreshEngine(Sim.dim, Sim.lire, seed = Sim.seed)
      case Some(t) => new SpFreshEngine(Sim.dim, Sim.lire, centroids =
        new TimedCentroidIndex(new BruteForceCentroidIndex, t), seed = Sim.seed)
    }

    // Untimed warm-up: one build and a few epochs on a throwaway engine, so
    // the JIT has compiled the build, rebuilder and search paths.
    locally {
      val t = newTracer()
      val e = newEngine(t)
      e.buildInitial(base)
      val s = new EngineSession(e, base, pool, w, t, new Report)
      (1 to w.warmEpochs).foreach(ep => s.epoch(Sim.seed + 50000 + ep, queryStream + 50000 + ep))
    }

    progress("warm-up done")
    val buildSecs = mutable.ArrayBuffer.empty[Double]
    val sessions = mutable.ArrayBuffer.tabulate(Replicas) { _ =>
      System.gc()
      val t = newTracer()
      val e = newEngine(t)
      val t0 = System.nanoTime()
      e.buildInitial(base)
      buildSecs += (System.nanoTime() - t0) / 1e9
      report.check("built_postings_over_split_limit",
        Checks.oversized(e.rawPostingSizes().values.map(_.toLong), Sim.lire.splitLimit) == 0)
      new EngineSession(e, base, pool, w, t, report)
    }

    progress("builds done")
    val s = sessions.head
    val e = s.engine
    val tracer = s.tracer
    val stats0 = copyStats(e.stats)
    val dist0 = e.centroids.distanceComputations
    val io0 = (e.store.io.blockReads, e.store.io.blockWrites)
    val epochs = w.epochs(seconds)
    System.gc()
    sessions.foreach(_.tracer.foreach(_.recording = true))
    sessions.foreach(r => (1 to epochs).foreach(ep => r.epoch(Sim.seed + 100 + ep, queryStream + ep)))
    sessions.foreach(_.tracer.foreach(_.recording = false))
    progress(s"$epochs epochs of $Replicas replicas done")
    sessions.zipWithIndex.foreach { case (r, i) =>
      Console.err.println(f"  replica $i: update+drain ${(r.updateNanos.sum + r.drainNanos.sum) / 1e9}%.3f s, " +
        f"searches ${r.searchNanos.sum / 1e9}%.3f s")
    }
    val dist1 = e.centroids.distanceComputations
    val io1 = (e.store.io.blockReads, e.store.io.blockWrites)

    val updateOps = sessions.map(_.updateOps).sum
    val updateNs = sessions.flatMap(_.updateNanos).sum
    val drainSecs = sessions.flatMap(_.drainNanos).map(_ / 1e9).toSeq
    report.put("setup_s", Stats.median(buildSecs.toSeq), "s", buildSecs.length)
    report.put("update_per_s", updateOps / (updateNs / 1e9 + drainSecs.sum), "vectors/s", updateOps)
    report.put("rebalance_p50_s", Stats.median(drainSecs), "s", drainSecs.length)
    val lat = sessions.flatMap(_.searchNanos).map(_ / 1e6).toSeq
    report.put("search_qps", lat.length / (lat.sum / 1e3), "queries/s", lat.length)
    report.put("search_p50_ms", Stats.percentile(lat, 50), "ms", lat.length)
    if (!Stats.supported(lat.length, 99))
      Console.err.println(s"warning: search_p99_ms has fewer than 10 of ${lat.length} samples beyond it")
    report.put("search_p99_ms", Stats.percentile(lat, 99), "ms", lat.length)

    // Quality and footprint, outside timing.
    val qs = VectorGen.queries(pool, RecallQueries, queryStream)
    val data = s.live.toSeq
    val recalls = qs.map { q =>
      GroundTruth.recall(e.search(q, Sim.k, Sim.probes).ids, GroundTruth.topK(q, data, Sim.k))
    }
    report.put("recall_at_10", recalls.sum / recalls.length, "ratio", recalls.length)
    report.put("space_amp", e.store.diskBytes.toDouble / (s.live.size.toLong * 4 * Sim.dim), "ratio")

    sessions.foreach { r =>
      val (missing, npa) = Checks.replicaCensus(r.engine, r.live)
      report.checkMany("vector_without_live_replica", r.live.size, missing)
      report.check("npa_violations_over_tolerance", Checks.npaWithinTolerance(npa, r.live.size))
      if (r eq s) report.put("engine.npa_violations_end", npa.toDouble, "count")
    }
    // The heap of one engine, as a user running one would see it.
    sessions.remove(1, Replicas - 1)
    report.put("heap_mb", Heap.usedMb(), "MiB")

    progress("checks done")
    tracer.foreach { t =>
      val st = e.stats
      val n = TimedCentroidIndex.Nearest
      report.put("centroid.nearest.calls", t.count(n).toDouble, "count")
      report.put("centroid.nearest.dist_comps", (dist1 - dist0).toDouble, "count")
      report.put("centroid.nearest_search.s", t.childSeconds("engine.search", n), "s")
      report.put("centroid.nearest_insert.s", t.childSeconds("engine.insert", n), "s")
      report.put("centroid.nearest_drain.s", t.childSeconds("engine.drain", n), "s")
      report.put("centroid.size_end", e.centroids.size.toDouble, "count")

      report.put("engine.search.s", t.seconds("engine.search"), "s", t.count("engine.search"))
      report.put("engine.search.self_s", t.selfSeconds("engine.search"), "s")
      report.put("engine.insert.s", t.seconds("engine.insert"), "s", t.count("engine.insert"))
      report.put("engine.delete.s", t.seconds("engine.delete"), "s", t.count("engine.delete"))
      report.put("engine.drain.s", t.seconds("engine.drain"), "s", t.count("engine.drain"))
      report.put("engine.drain.self_s", t.selfSeconds("engine.drain"), "s")
      report.put("engine.drain.jobs", s.drainedJobs.toDouble, "count")
      report.put("engine.pending_jobs.max", s.pendingMax.toDouble, "count")
      val splitJobs = st.splitJobs - stats0.splitJobs
      val splits = st.splitsExecuted - stats0.splitsExecuted
      val checked = st.reassignChecked - stats0.reassignChecked
      val executed = st.reassignExecuted - stats0.reassignExecuted
      report.put("engine.split_jobs", splitJobs.toDouble, "count")
      report.put("engine.splits", splits.toDouble, "count")
      report.put("engine.gc_only_splits", (st.gcOnlySplits - stats0.gcOnlySplits).toDouble, "count")
      report.put("engine.merges", (st.merges - stats0.merges).toDouble, "count")
      report.put("engine.cascade_splits", (st.cascadeSplits - stats0.cascadeSplits).toDouble, "count")
      report.put("engine.reassign.checked", checked.toDouble, "count")
      report.put("engine.reassign.executed", executed.toDouble, "count")
      report.put("engine.reassign.aborted", (st.reassignAborted - stats0.reassignAborted).toDouble, "count")
      report.put("engine.split.useful_ratio", ratio(splits, splitJobs), "ratio", splitJobs)
      report.put("engine.reassign.moved_ratio", ratio(executed, checked), "ratio", checked)

      val searches = t.count("engine.search")
      val updates = t.count("engine.insert") + t.count("engine.delete")
      val inserted = t.count("engine.insert")
      report.put("storage.reads_per_search", ratio(s.reads("engine.search"), searches), "blocks", searches)
      report.put("storage.reads_per_update",
        ratio(s.reads("engine.insert") + s.reads("engine.delete"), updates), "blocks", updates)
      report.put("storage.writes_per_update",
        ratio(s.writes("engine.insert") + s.writes("engine.delete"), updates), "blocks", updates)
      report.put("storage.drain_reads", s.reads("engine.drain").toDouble, "blocks")
      report.put("storage.drain_writes", s.writes("engine.drain").toDouble, "blocks")
      report.put("storage.write_amp",
        ratio((io1._2 - io0._2) * e.store.blockSizeBytes, inserted * 4L * Sim.dim), "ratio")
      report.put("storage.blocks_end", e.store.usedBlocks.toDouble, "blocks")
      val liveSizes = e.livePostingSizes().values.map(_.toDouble).toSeq
      report.put("storage.posting_live_p50", Stats.median(liveSizes), "vectors", liveSizes.length)
      report.put("storage.posting_live_max", liveSizes.max, "vectors", liveSizes.length)

      report.put("versions.size_end", e.versions.size.toDouble, "count")
      report.put("versions.tombstones_end", (e.versions.size - e.versions.liveIds.size).toDouble, "count")
    }
    report
  }

  private def ratio(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b

  private def copyStats(s: EngineStats): EngineStats = {
    val c = new EngineStats
    c.splitJobs = s.splitJobs; c.splitsExecuted = s.splitsExecuted; c.gcOnlySplits = s.gcOnlySplits
    c.merges = s.merges; c.cascadeSplits = s.cascadeSplits; c.reassignChecked = s.reassignChecked
    c.reassignExecuted = s.reassignExecuted; c.reassignAborted = s.reassignAborted
    c
  }
}

/** The client loop over one engine. It times every call itself; in the
  * traced run it also opens a span per call and charges the block I/O the
  * call issued to that call's layer.
  */
private final class EngineSession(
    val engine: SpFreshEngine,
    base: Seq[(Long, Array[Float])],
    pool: VectorGen.Mixture,
    w: EngineWorkload,
    val tracer: Option[Tracer],
    report: Report,
) {
  private val e = engine
  private val sim = EngineBench.Sim
  val live: mutable.LongMap[Array[Float]] = mutable.LongMap.from(base)
  private var nextId = base.map(_._1).max + 1

  var updateOps = 0L
  val updateNanos = mutable.ArrayBuffer.empty[Long]
  val drainNanos = mutable.ArrayBuffer.empty[Long]
  val searchNanos = mutable.ArrayBuffer.empty[Long]
  var drainedJobs = 0L
  var pendingMax = 0
  val reads: mutable.Map[String, Long] = mutable.Map.empty[String, Long].withDefaultValue(0L)
  val writes: mutable.Map[String, Long] = mutable.Map.empty[String, Long].withDefaultValue(0L)

  private def call[A](layer: String)(f: => A): A = tracer match {
    case None => f
    case Some(t) =>
      val r0 = e.store.io.blockReads; val w0 = e.store.io.blockWrites
      val a = t.span(layer)(f)
      reads(layer) += e.store.io.blockReads - r0
      writes(layer) += e.store.io.blockWrites - w0
      a
  }

  def epoch(updateSeed: Long, querySeed: Long): Unit = {
    val (dels, ins) = VectorGen.epoch(live.keys.toIndexedSeq.sorted, pool, w.updateRate, nextId, updateSeed)
    val t0 = System.nanoTime()
    dels.foreach(id => call("engine.delete")(e.delete(id)))
    ins.foreach(v => call("engine.insert")(e.insert(v.id, v.vec)))
    val t1 = System.nanoTime()
    pendingMax = math.max(pendingMax, e.pendingJobs)
    drainedJobs += call("engine.drain")(e.drainJobs())
    val t2 = System.nanoTime()
    updateNanos += t1 - t0
    drainNanos += t2 - t1
    updateOps += dels.length + ins.length
    report.attempt(dels.length + ins.length)
    dels.foreach(live.remove)
    ins.foreach(v => live(v.id) = v.vec)
    nextId += ins.length
    report.check("posting_over_split_limit",
      Checks.oversized(e.rawPostingSizes().values.map(_.toLong), sim.lire.splitLimit) == 0)

    VectorGen.queries(pool, w.searchesPerEpoch, querySeed).foreach { q =>
      val s0 = System.nanoTime()
      val r = call("engine.search")(e.search(q, sim.k, sim.probes))
      searchNanos += System.nanoTime() - s0
      report.check("search_result", Checks.searchResult(r.ids, sim.k, live.contains, e.versions.isLive))
    }
  }
}

object Heap {

  /** JVM heap in use after a forced collection, in MiB. */
  def usedMb(): Double = {
    val rt = Runtime.getRuntime
    System.gc(); System.gc()
    (rt.totalMemory() - rt.freeMemory()) / (1024.0 * 1024.0)
  }
}
