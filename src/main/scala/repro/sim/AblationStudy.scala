package repro.sim

import repro.core.LireConfig
import repro.core.engine.SpFreshEngine
import repro.data.{GroundTruth, VectorGen}
import repro.metrics.LatencyModel

/** The data-distribution-shifting micro-benchmarks:
  *
  *  - Fig 2: *static* (index built over the final vector set) vs *naive
  *    in-place update* (base index + appended updates, no rebalancing) —
  *    recall drops and tail latency blows up;
  *  - Fig 10: the ablation ladder — in-place only (SPANN+), + split,
  *    + split/reassign (full LIRE), vs static — as recall/latency
  *    trade-off curves over the probe count;
  *  - Fig 11: recall as a function of the reassign range.
  */
object AblationStudy {

  /** One (probes → recall, tail-latency) sample of one system variant. */
  final case class TradeoffPoint(system: String, probes: Int, recall: Double,
                                 meanMs: Double, p99Ms: Double)

  /** The micro-benchmark uses *overlapping* clusters (sigma comparable to
    * the inter-center spacing) and a sizeable center drift: with separable
    * blobs, insertion and query trivially follow the same path and the
    * paper's NPA-violation effects vanish (queries then always land in the
    * one giant posting that also holds their neighbors).
    */
  final case class ShiftConfig(
      dim: Int = 32,
      baseN: Int = 6000,
      updateN: Int = 2000,
      queries: Int = 150,
      k: Int = 10,
      nClusters: Int = 16,
      sigma: Double = 20.0,
      driftSigma: Double = 25.0,
      zipfAlpha: Double = 1.2,
      seed: Long = 11,
      lire: LireConfig = LireConfig(splitLimit = 128, mergeThreshold = 16,
        reassignRange = 16, searchProbes = 16),
  )

  /** Final data state after the shift: base minus deletions plus shifted
    * inserts, identical across all variants.
    */
  final case class ShiftedWorkload(
      base: IndexedSeq[VectorGen.Vec],
      inserts: IndexedSeq[VectorGen.Vec],
      deletes: IndexedSeq[Long],
      queryMix: VectorGen.Mixture,
      finalData: Seq[(Long, Array[Float])],
  )

  def shiftedWorkload(cfg: ShiftConfig): ShiftedWorkload = {
    val mix = VectorGen.mixture(cfg.dim, cfg.nClusters, cfg.seed, sigma = cfg.sigma)
    val pool = VectorGen.shifted(mix, cfg.seed + 1,
      zipfAlpha = cfg.zipfAlpha, driftSigma = cfg.driftSigma)
    val base = VectorGen.draw(mix, cfg.baseN, 0, cfg.seed + 2)
    val inserts = VectorGen.draw(pool, cfg.updateN, cfg.baseN.toLong, cfg.seed + 3)
    val rnd = new scala.util.Random(cfg.seed + 4)
    val deletes = rnd.shuffle(base.map(_.id)).take(cfg.updateN / 2)
    val delSet = deletes.toSet
    val finalData = (base.filterNot(v => delSet(v.id)) ++ inserts).map(v => (v.id, v.vec))
    // Queries follow the *final* data distribution (the paper's test sets
    // are in-distribution for the evaluated index state).
    val baseShare = (cfg.baseN - deletes.length).toDouble / finalData.size
    val queryMix = VectorGen.combined(mix, pool, baseShare)
    ShiftedWorkload(base, inserts, deletes, queryMix, finalData)
  }

  /** Build one system variant over the workload and sweep probe counts.
    *
    * @param variant "static" | "in-place" | "in-place+split" | "spfresh"
    */
  def tradeoff(cfg: ShiftConfig, w: ShiftedWorkload, variant: String,
               probeSweep: Seq[Int]): Seq[TradeoffPoint] = {
    val e = variant match {
      case "static" =>
        val s = new SpFreshEngine(cfg.dim, cfg.lire, seed = cfg.seed)
        s.buildInitial(w.finalData)
        s
      case "in-place" =>
        val s = new SpFreshEngine(cfg.dim, cfg.lire, rebalanceEnabled = false, seed = cfg.seed)
        applyUpdates(s, w)
        s
      case "in-place+split" =>
        val s = new SpFreshEngine(cfg.dim, cfg.lire, seed = cfg.seed, reassignEnabled = false)
        applyUpdates(s, w)
        s
      case "spfresh" =>
        val s = new SpFreshEngine(cfg.dim, cfg.lire, seed = cfg.seed)
        applyUpdates(s, w)
        s
      case other => throw new IllegalArgumentException(s"unknown variant $other")
    }
    val qs = VectorGen.queries(w.queryMix, cfg.queries, cfg.seed + 9)
    val truths = qs.map(q => GroundTruth.topK(q, w.finalData, cfg.k))
    // The 10 ms hard cut (§5.1): beyond its budget the scan is cut short.
    probeSweep.map { probes =>
      val budget = e.hardCutBlocks(probes)
      val (lats, recs) = qs.zip(truths).map { case (q, truth) =>
        val r = e.search(q, cfg.k, probes, blockBudget = budget)
        val ms = LatencyModel.searchMs(r.cost.io.reads, r.cost.distComps)
        (ms, GroundTruth.recall(r.ids, truth))
      }.unzip
      TradeoffPoint(variant, probes,
        recs.sum / recs.length,
        lats.sum / lats.length,
        LatencyModel.percentile(lats, 99))
    }
  }

  private def applyUpdates(e: SpFreshEngine, w: ShiftedWorkload): Unit = {
    e.buildInitial(w.base.map(v => (v.id, v.vec)))
    w.deletes.foreach(e.delete)
    w.inserts.foreach(v => e.insert(v.id, v.vec))
    e.drainJobs()
  }

  /** Fig 11: recall at a fixed probe budget as the reassign range grows. */
  def reassignRangeSweep(cfg: ShiftConfig, w: ShiftedWorkload,
                         ranges: Seq[Int], probes: Int): Seq[(Int, Double)] =
    ranges.map { range =>
      val lire = cfg.lire.copy(reassignRange = range)
      val e = new SpFreshEngine(cfg.dim, lire, seed = cfg.seed)
      applyUpdates(e, w)
      val budget = e.hardCutBlocks(probes)
      val qs = VectorGen.queries(w.queryMix, cfg.queries, cfg.seed + 9)
      val recs = qs.map { q =>
        GroundTruth.recall(e.search(q, cfg.k, probes, blockBudget = budget).ids,
          GroundTruth.topK(q, w.finalData, cfg.k))
      }
      (range, recs.sum / recs.length)
    }
}
