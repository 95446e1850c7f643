package repro.sim

import repro.SparkSpec

/** Fast, tiny-scale checks of the experiment drivers the benches call —
  * workload determinism, metric sanity, and the pipeline law.
  */
class SimulationSpec extends SparkSpec {
  private val tiny = SimConfig(dim = 8, baseN = 600, epochs = 2, queriesPerEpoch = 10,
    probes = 4, nClusters = 6,
    lire = repro.core.LireConfig(splitLimit = 32, mergeThreshold = 4,
      reassignRange = 8, searchProbes = 4))

  test("workload generation is deterministic in the config seed") {
    val a = UpdateSimulation.workload(tiny)
    val b = UpdateSimulation.workload(tiny)
    assert(a.base.map(_.id) == b.base.map(_.id))
    assert(a.base.head.vec.toSeq == b.base.head.vec.toSeq)
  }

  test("cluster-engine simulation returns one metrics row per epoch") {
    val w = UpdateSimulation.workload(tiny)
    val ms = UpdateSimulation.runClusterEngine(w, rebalance = true)
    assert(ms.length == tiny.epochs)
    assert(ms.map(_.epoch) == (1 to tiny.epochs))
  }

  test("cluster-engine simulation counts the replica census at its last epoch") {
    val w = UpdateSimulation.workload(tiny)
    val ms = UpdateSimulation.runClusterEngine(w, rebalance = true)
    assert(ms.init.forall(_.replicas.isEmpty))
    val replicas = ms.last.replicas.get
    assert(replicas >= 1.0 && replicas <= tiny.lire.maxReplicas, s"implausible replica mean: $replicas")
  }

  test("simulation metrics are within sane ranges") {
    val w = UpdateSimulation.workload(tiny)
    val ms = UpdateSimulation.runClusterEngine(w, rebalance = true)
    ms.foreach { m =>
      assert(m.recall >= 0.0 && m.recall <= 1.0)
      assert(m.searchP999Ms >= m.searchP50Ms)
      assert(m.searchP999Ms <= repro.metrics.LatencyModel.HardCutMs + 1e-9)
      assert(m.insertMeanMs > 0 && m.memoryMb > 0)
    }
  }

  test("SPANN+ simulation never splits or reassigns") {
    val w = UpdateSimulation.workload(tiny)
    val ms = UpdateSimulation.runClusterEngine(w, rebalance = false)
    assert(ms.forall(m => m.splits == 0 && m.merges == 0 && m.reassigns == 0))
  }

  test("DiskANN simulation merges on schedule") {
    val w = UpdateSimulation.workload(tiny.copy(epochs = 4))
    val ms = UpdateSimulation.runDiskAnn(w, mergeEveryEpochs = 2)
    assert(ms.map(_.merges) == Seq(0, 1, 0, 1))
  }

  test("render emits a header plus one row per epoch") {
    val w = UpdateSimulation.workload(tiny)
    val ms = UpdateSimulation.runClusterEngine(w, rebalance = true)
    assert(UpdateSimulation.render("X", ms).linesIterator.size == tiny.epochs + 1)
  }

  test("shifted workload construction covers base, inserts, deletes consistently") {
    val cfg = AblationStudy.ShiftConfig(dim = 8, baseN = 400, updateN = 100, queries = 5)
    val w = AblationStudy.shiftedWorkload(cfg)
    assert(w.base.length == 400 && w.inserts.length == 100 && w.deletes.length == 50)
    assert(w.finalData.size == 400 - 50 + 100)
    assert(w.deletes.toSet.subsetOf(w.base.map(_.id).toSet))
  }

  test("tradeoff rejects unknown variants and covers the probe sweep") {
    val cfg = AblationStudy.ShiftConfig(dim = 8, baseN = 300, updateN = 60, queries = 5,
      lire = repro.core.LireConfig(splitLimit = 32, mergeThreshold = 4,
        reassignRange = 4, searchProbes = 4))
    val w = AblationStudy.shiftedWorkload(cfg)
    intercept[IllegalArgumentException](AblationStudy.tradeoff(cfg, w, "nope", Seq(2)))
    val pts = AblationStudy.tradeoff(cfg, w, "static", Seq(2, 4))
    assert(pts.map(_.probes) == Seq(2, 4))
    assert(pts.forall(p => p.recall >= 0 && p.recall <= 1 && p.meanMs > 0))
  }

  test("more probes never hurt recall on the static variant") {
    val cfg = AblationStudy.ShiftConfig(dim = 8, baseN = 300, updateN = 60, queries = 10,
      lire = repro.core.LireConfig(splitLimit = 32, mergeThreshold = 4,
        reassignRange = 4, searchProbes = 4))
    val w = AblationStudy.shiftedWorkload(cfg)
    val pts = AblationStudy.tradeoff(cfg, w, "static", Seq(2, 8))
    assert(pts(1).recall >= pts(0).recall - 1e-9)
  }

  test("rebuild cost rows cover the three systems with positive measurements") {
    val rows = RebuildCost.measure(RebuildCost.CostConfig(dim = 8, n = 500,
      lire = repro.core.LireConfig(splitLimit = 32, mergeThreshold = 4,
        reassignRange = 4, searchProbes = 4)))
    assert(rows.map(_.system) == Seq("DiskANN", "SPANN", "SPFresh"))
    assert(rows.forall(r => r.wallMs >= 0 && r.peakModelMemMb > 0))
    assert(RebuildCost.render(rows).linesIterator.size == 4)
  }

  test("pipeline model obeys the min() law and positive service times") {
    val st = PipelineModel.ServiceTimes(tFgSec = 0.001, tBgSec = 0.002)
    assert(PipelineModel.throughput(st, 2, 1) == 500.0)
    assert(PipelineModel.throughput(st, 1, 4) == 1000.0)
    assert(PipelineModel.balancedRatio(st) == 0.5)
  }

  test("pipeline measurement on a small engine yields positive times") {
    val st = PipelineModel.measure(dim = 8, baseN = 500, storm = 50,
      lire = repro.core.LireConfig(splitLimit = 32, mergeThreshold = 4,
        reassignRange = 4, searchProbes = 4))
    assert(st.tFgSec > 0 && st.tBgSec > 0)
  }

  test("stress simulation runs end-to-end on a tiny distributed index") {
    val root = java.nio.file.Files.createTempDirectory("simspec-stress").toString
    val cfg = StressSimulation.StressConfig(dim = 4, baseN = 300, epochs = 2,
      queriesPerEpoch = 5, probes = 4,
      lire = repro.core.LireConfig(splitLimit = 32, mergeThreshold = 4,
        reassignRange = 4, searchProbes = 4))
    val es = StressSimulation.run(spark, root, cfg, skew = true)
    assert(es.length == 2)
    es.foreach { e =>
      assert(e.recall >= 0 && e.recall <= 1)
      assert(e.meanIoBlocks > 0 && e.postings > 0)
    }
    assert(StressSimulation.render("t", es).linesIterator.size == 3)
  }
}
