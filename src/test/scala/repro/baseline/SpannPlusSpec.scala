package repro.baseline

import repro.SparkSpec
import repro.core.LireConfig
import repro.core.engine.SpFreshEngine
import repro.data.{GroundTruth, VectorGen}

/** SPANN+ baseline (§5.1): an [[SpFreshEngine]] with rebalancing disabled
  * — its append-only behavior and the degradation the paper attributes to
  * it (Figure 2's tail-latency blow-up).
  */
class SpannPlusSpec extends SparkSpec {
  private val dim = 8
  private val cfg = LireConfig(splitLimit = 32, mergeThreshold = 4, searchProbes = 8)

  test("append-only updates grow postings past the split limit") {
    val e = new SpFreshEngine(dim, cfg, rebalanceEnabled = false)
    val mix = VectorGen.mixture(dim, 4, seed = 1)
    e.buildInitial(VectorGen.draw(mix, 200, 0, seed = 2).map(v => (v.id, v.vec)))
    val hot = VectorGen.Mixture(IndexedSeq(mix.centers.head), IndexedSeq(1.0), 2.0)
    VectorGen.draw(hot, 400, 1000, seed = 3).foreach(v => e.insert(v.id, v.vec))
    e.drainJobs()
    assert(e.livePostingSizes().values.max > cfg.splitLimit)
    assert(e.stats.splitsExecuted == 0)
  }

  test("skewed growth inflates worst-case probe cost vs SPFresh") {
    val mix = VectorGen.mixture(dim, 4, seed = 5)
    val base = VectorGen.draw(mix, 300, 0, seed = 6).map(v => (v.id, v.vec))
    val hot = VectorGen.Mixture(IndexedSeq(mix.centers.head), IndexedSeq(1.0), 2.0)
    val updates = VectorGen.draw(hot, 600, 1000, seed = 7)

    val plus = new SpFreshEngine(dim, cfg, rebalanceEnabled = false, seed = 1)
    plus.buildInitial(base)
    updates.foreach(v => plus.insert(v.id, v.vec))
    plus.drainJobs()

    val fresh = new SpFreshEngine(dim, cfg, seed = 1)
    fresh.buildInitial(base)
    updates.foreach(v => fresh.insert(v.id, v.vec))
    fresh.drainJobs()

    // Blocks of the four postings a query at the hot center probes.
    def probeCost(e: SpFreshEngine) = e.centroids.nearest(mix.centers.head, 4).map(p => e.store.blockCount(p._1)).sum
    assert(probeCost(plus) > probeCost(fresh),
      "append-only postings must cost more blocks to probe in the hot region")
  }

  test("search still works (recall is paid in latency, not correctness, early on)") {
    val e = new SpFreshEngine(dim, cfg, rebalanceEnabled = false)
    val mix = VectorGen.mixture(dim, 4, seed = 9)
    val base = VectorGen.draw(mix, 300, 0, seed = 10)
    e.buildInitial(base.map(v => (v.id, v.vec)))
    val data = base.map(v => (v.id, v.vec))
    val qs = VectorGen.queries(mix, 20, seed = 11)
    val recalls = qs.map(q => GroundTruth.recall(e.search(q, 10).ids, GroundTruth.topK(q, data, 10)))
    assert(recalls.sum / recalls.length >= 0.9)
  }

  test("deletes leave tombstones that are never physically GCed (no splits)") {
    val e = new SpFreshEngine(dim, cfg, rebalanceEnabled = false)
    val mix = VectorGen.mixture(dim, 4, seed = 13)
    val base = VectorGen.draw(mix, 200, 0, seed = 14)
    e.buildInitial(base.map(v => (v.id, v.vec)))
    val rawBefore = e.rawPostingSizes().values.sum
    base.take(50).foreach(v => e.delete(v.id))
    e.drainJobs()
    assert(e.rawPostingSizes().values.sum == rawBefore, "append-only never shrinks raw data")
    assert(e.livePostingSizes().values.sum == base.length - 50 ||
      e.livePostingSizes().values.sum < rawBefore)
  }
}
