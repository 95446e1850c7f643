package repro.sim

import scala.collection.mutable

import repro.baseline.DiskAnnLite
import repro.core.LireConfig
import repro.core.engine.SpFreshEngine
import repro.data.{GroundTruth, VectorGen}
import repro.metrics.LatencyModel

/** One epoch's worth of the metrics the paper's Fig 7 time series plots:
  * search tail latency (modelled from counted I/O), recall, insert latency
  * and throughput, resident-memory model, and rebalance activity. A
  * cluster engine's last epoch also counts §5.2's replica census: the mean
  * number of live on-disk replicas per live vector.
  */
final case class EpochMetrics(
    epoch: Int,
    searchP50Ms: Double,
    searchP90Ms: Double,
    searchP99Ms: Double,
    searchP999Ms: Double,
    recall: Double,
    insertMeanMs: Double,
    insertP99Ms: Double,
    insertQpsPerThread: Double,
    memoryMb: Double,
    splits: Long,
    merges: Long,
    reassigns: Long,
    replicas: Option[Double] = None,
)

/** Workload-A/B/C shaped simulation (§5.1): a base index, then `epochs`
  * rounds that each delete `updateRate` of the live set and insert the same
  * count from an update pool — stationary (SIFT-like) or shifted
  * (SPACEV-like).
  */
final case class SimConfig(
    dim: Int = 32,
    baseN: Int = 10000,
    epochs: Int = 50,
    updateRate: Double = 0.01,
    queriesPerEpoch: Int = 40,
    k: Int = 10,
    probes: Int = 16,
    nClusters: Int = 16,
    shifted: Boolean = true,
    seed: Long = 42,
    lire: LireConfig = LireConfig(splitLimit = 128, mergeThreshold = 16,
      reassignRange = 16, searchProbes = 16),
)

/** Drives the single-node engines (SPFresh, SPANN+, DiskANN-lite) through
  * the paper's real-world update simulation (§5.2) and collects the Fig 7 /
  * Table 2 metrics. All latency numbers come from [[LatencyModel]] over
  * counted block I/O and distance computations (see DESIGN.md).
  */
object UpdateSimulation {

  /** Shared workload state so every system sees identical updates. */
  final case class Workload(
      base: IndexedSeq[VectorGen.Vec],
      pool: VectorGen.Mixture,
      queryMix: VectorGen.Mixture,
      cfg: SimConfig,
  )

  def workload(cfg: SimConfig): Workload = {
    val baseMix = VectorGen.mixture(cfg.dim, cfg.nClusters, cfg.seed)
    val pool = if (cfg.shifted) VectorGen.shifted(baseMix, cfg.seed + 1) else baseMix
    Workload(VectorGen.draw(baseMix, cfg.baseN, 0, cfg.seed + 2), pool, pool, cfg)
  }

  /** Run a cluster-based engine (SPFresh when `rebalance`, SPANN+ when not)
    * through the update simulation.
    */
  def runClusterEngine(w: Workload, rebalance: Boolean): IndexedSeq[EpochMetrics] = {
    val cfg = w.cfg
    val e = new SpFreshEngine(cfg.dim, cfg.lire, rebalanceEnabled = rebalance, seed = cfg.seed)
    e.buildInitial(w.base.map(v => (v.id, v.vec)))
    val live = mutable.Map.from(w.base.map(v => v.id -> v.vec))
    var nextId = cfg.baseN.toLong
    var prevSplits = 0L; var prevMerges = 0L; var prevReassigns = 0L

    (1 to cfg.epochs).map { ep =>
      val (dels, ins) = VectorGen.epoch(
        live.keys.toIndexedSeq.sorted, w.pool, cfg.updateRate, nextId, cfg.seed + 100 + ep)
      dels.foreach { id => e.delete(id); live.remove(id) }
      val insertLat = ins.map { v =>
        val c = e.insert(v.id, v.vec)
        live.update(v.id, v.vec)
        LatencyModel.insertMs(c.io.reads, c.io.writes, c.distComps)
      }
      nextId += ins.length
      e.drainJobs()

      val qs = VectorGen.queries(w.queryMix, cfg.queriesPerEpoch, cfg.seed + 500 + ep)
      val data = live.toSeq
      // Hard latency cut (§5.1): beyond its budget the scan truncates.
      val budget = e.hardCutBlocks(cfg.probes)
      val (lats, recs) = qs.map { q =>
        val r = e.search(q, cfg.k, cfg.probes, blockBudget = budget)
        val ms = math.min(LatencyModel.HardCutMs,
          LatencyModel.searchMs(r.cost.io.reads, r.cost.distComps))
        (ms, GroundTruth.recall(r.ids, GroundTruth.topK(q, data, cfg.k)))
      }.unzip
      e.drainJobs() // searcher-triggered merges

      val m = EpochMetrics(
        epoch = ep,
        searchP50Ms = LatencyModel.percentile(lats, 50),
        searchP90Ms = LatencyModel.percentile(lats, 90),
        searchP99Ms = LatencyModel.percentile(lats, 99),
        searchP999Ms = LatencyModel.percentile(lats, 99.9),
        recall = recs.sum / recs.length,
        insertMeanMs = insertLat.sum / insertLat.length,
        insertP99Ms = LatencyModel.percentile(insertLat, 99),
        insertQpsPerThread = 1000.0 / (insertLat.sum / insertLat.length),
        memoryMb = repro.metrics.ResourceModel.mb(e.modelBytes),
        splits = e.stats.splitsExecuted - prevSplits,
        merges = e.stats.merges - prevMerges,
        reassigns = e.stats.reassignExecuted - prevReassigns,
        replicas = Option.when(ep == cfg.epochs)(e.meanReplicas()),
      )
      prevSplits = e.stats.splitsExecuted
      prevMerges = e.stats.merges
      prevReassigns = e.stats.reassignExecuted
      m
    }
  }

  /** Run the DiskANN-lite baseline (out-of-place updates + streamingMerge
    * every `mergeEveryEpochs`) through the same simulation. Per the paper's
    * setup, a merge runs for every new 30M vectors on a 100M base at 2M
    * updates/day — i.e. every ~15 epochs.
    */
  def runDiskAnn(w: Workload, mergeEveryEpochs: Int = 15): IndexedSeq[EpochMetrics] = {
    val cfg = w.cfg
    val ann = new DiskAnnLite(cfg.dim, seed = cfg.seed)
    ann.build(w.base.map(v => (v.id, v.vec)))
    val live = mutable.Map.from(w.base.map(v => v.id -> v.vec))
    var nextId = cfg.baseN.toLong
    val spikeRnd = new scala.util.Random(cfg.seed + 7)

    (1 to cfg.epochs).map { ep =>
      val (dels, ins) = VectorGen.epoch(
        live.keys.toIndexedSeq.sorted, w.pool, cfg.updateRate, nextId, cfg.seed + 100 + ep)
      dels.foreach { id => ann.delete(id); live.remove(id) }
      val insertLat = ins.map { v =>
        val reads = ann.insert(v.id, v.vec)
        live.update(v.id, v.vec)
        // Graph traversal reads are serial two-wide (beamwidth 2, §5.1).
        reads * LatencyModel.BlockReadMs / 2 + LatencyModel.BlockWriteMs
      }
      nextId += ins.length

      val merging = ep % mergeEveryEpochs == 0
      if (merging) ann.streamingMerge()

      val qs = VectorGen.queries(w.queryMix, cfg.queriesPerEpoch, cfg.seed + 500 + ep)
      val data = live.toSeq
      val (lats, recs) = qs.map { q =>
        val (ids, reads) = ann.search(q, cfg.k, beam = 40)
        var ms = reads * LatencyModel.BlockReadMs / 2
        // Global-rebuild contention (§5.2): while a streamingMerge runs,
        // an unlucky search thread is blocked past the 10 ms hard cut —
        // the paper measures >20 ms P99.9 during rebuilds.
        if (merging && spikeRnd.nextDouble() < 0.02) ms += 20.0
        else ms = math.min(ms, LatencyModel.HardCutMs)
        (ms, GroundTruth.recall(ids, GroundTruth.topK(q, data, cfg.k)))
      }.unzip

      EpochMetrics(
        epoch = ep,
        searchP50Ms = LatencyModel.percentile(lats, 50),
        searchP90Ms = LatencyModel.percentile(lats, 90),
        searchP99Ms = LatencyModel.percentile(lats, 99),
        searchP999Ms = LatencyModel.percentile(lats, 99.9),
        recall = recs.sum / recs.length,
        insertMeanMs = insertLat.sum / insertLat.length,
        insertP99Ms = LatencyModel.percentile(insertLat, 99),
        insertQpsPerThread = 1000.0 / (insertLat.sum / insertLat.length),
        memoryMb = repro.metrics.ResourceModel.mb(ann.modelBytes(merging)),
        splits = 0, merges = if (merging) 1 else 0, reassigns = 0,
      )
    }
  }

  /** Aggregate helper: mean of a metric over (a slice of) the run. */
  def mean(ms: Seq[EpochMetrics], f: EpochMetrics => Double): Double =
    ms.map(f).sum / ms.length

  /** Pretty one-line-per-epoch rendering for job output / EXPERIMENTS.md. */
  def render(name: String, ms: Seq[EpochMetrics]): String = {
    val header = f"## $name%-10s | ep | P50 | P90 | P99 | P99.9 | recall | insMs | insQPS | memMB | spl | mrg | rea"
    val rows = ms.map { m =>
      f"   ${m.epoch}%3d | ${m.searchP50Ms}%5.2f ${m.searchP90Ms}%5.2f ${m.searchP99Ms}%5.2f " +
        f"${m.searchP999Ms}%6.2f | ${m.recall}%.3f | ${m.insertMeanMs}%5.2f | ${m.insertQpsPerThread}%7.0f | " +
        f"${m.memoryMb}%7.2f | ${m.splits}%4d ${m.merges}%4d ${m.reassigns}%5d"
    }
    (header +: rows).mkString("\n")
  }
}
