package repro.bench

import repro.SparkSpec
import repro.sim.{EpochMetrics, SimConfig, UpdateSimulation}

/** Table 2 + Fig 7 reproduction: the §5.2 real-world update simulation over
  * SPFresh / SPANN+ / DiskANN-lite on the shifted (Workload A, SPACEV-like)
  * and stationary (Workload B, SIFT-like) regimes. Asserted shape:
  *
  *  - SPFresh's P99.9 is low and *stable*; SPANN+'s grows with the skew;
  *    DiskANN's spikes during global rebuilds (paper: 2.41× worse on avg);
  *  - SPFresh recall ends at or above SPANN+ (gap grows with shift);
  *  - SPFresh memory stays far below DiskANN (paper: ≥5.3× lower);
  *  - on the stationary dataset SPANN+ ≈ SPFresh (paper's SIFT finding).
  */
class Table2OverallBench extends SparkSpec {
  private val baseN = sys.env.getOrElse("REPRO_BENCH_N", "8000").toInt
  private val epochs = sys.env.getOrElse("REPRO_BENCH_EPOCHS", "30").toInt

  private def lastQuarter(ms: Seq[EpochMetrics], f: EpochMetrics => Double): Double = {
    val q = ms.takeRight(math.max(1, ms.length / 4))
    q.map(f).sum / q.length
  }
  private def firstQuarter(ms: Seq[EpochMetrics], f: EpochMetrics => Double): Double = {
    val q = ms.take(math.max(1, ms.length / 4))
    q.map(f).sum / q.length
  }

  private def printCensus(spfresh: Seq[EpochMetrics], spannPlus: Seq[EpochMetrics]): Unit =
    println(f"replica census (counted, live replicas per live vector at the last epoch): " +
      f"SPFresh=${spfresh.last.replicas.get}%.2f SPANN+=${spannPlus.last.replicas.get}%.2f (paper: 5.47)")

  test("Table 2 / Fig 7: shifted workload (SPACEV-like)") {
    val cfg = SimConfig(baseN = baseN, epochs = epochs, shifted = true)
    val w = UpdateSimulation.workload(cfg)
    val spfresh = UpdateSimulation.runClusterEngine(w, rebalance = true)
    val spannPlus = UpdateSimulation.runClusterEngine(w, rebalance = false)
    val diskann = UpdateSimulation.runDiskAnn(w)

    println(s"=== Table 2 / Fig 7, Workload A (shifted), baseN=$baseN epochs=$epochs ===")
    println(UpdateSimulation.render("SPFresh", spfresh))
    println(UpdateSimulation.render("SPANN+", spannPlus))
    println(UpdateSimulation.render("DiskANN", diskann))

    // --- tail latency shape -------------------------------------------
    val fLate = lastQuarter(spfresh, _.searchP999Ms)
    val pLate = lastQuarter(spannPlus, _.searchP999Ms)
    val fEarly = firstQuarter(spfresh, _.searchP999Ms)
    assert(fLate < pLate,
      f"SPFresh late P99.9 ($fLate%.2f) must beat SPANN+ ($pLate%.2f)")
    assert(fLate <= 1.75 * fEarly,
      f"SPFresh P99.9 must stay stable: early=$fEarly%.2f late=$fLate%.2f")
    val pEarly = firstQuarter(spannPlus, _.searchP999Ms)
    assert(pLate >= 1.2 * pEarly,
      f"SPANN+ P99.9 must degrade under shift: early=$pEarly%.2f late=$pLate%.2f")

    // DiskANN spikes during streamingMerge epochs (paper: >20ms P99.9).
    val dMax = diskann.map(_.searchP999Ms).max
    val dMedian = diskann.map(_.searchP999Ms).sorted.apply(diskann.length / 2)
    assert(dMax > 2 * dMedian,
      f"DiskANN P99.9 must spike during rebuilds: max=$dMax%.2f median=$dMedian%.2f")
    // SPFresh average P99.9 below DiskANN's (paper: 2.41x lower on average).
    val dAvg = UpdateSimulation.mean(diskann, _.searchP999Ms)
    val fAvg = UpdateSimulation.mean(spfresh, _.searchP999Ms)
    assert(fAvg < dAvg,
      f"SPFresh avg P99.9 ($fAvg%.2f) must beat DiskANN ($dAvg%.2f); paper ratio 2.41x")
    println(f"P99.9 avg: SPFresh=$fAvg%.2f DiskANN=$dAvg%.2f ratio=${dAvg / fAvg}%.2fx (paper: 2.41x)")

    // --- recall shape --------------------------------------------------
    // At reproduction scale (queries drawn from the insert pool) SPANN+'s
    // bloated postings saturate recall, so SPFresh only has to stay within
    // noise of it; the paper's widening gap needs the 100-day horizon at
    // 100M scale. The robust signal here is the latency shape above.
    assert(spfresh.last.recall >= spannPlus.last.recall - 0.03,
      f"SPFresh final recall (${spfresh.last.recall}%.3f) must not trail SPANN+ (${spannPlus.last.recall}%.3f)")
    assert(spfresh.last.recall >= 0.8, f"SPFresh recall floor: ${spfresh.last.recall}%.3f")

    printCensus(spfresh, spannPlus)

    // --- memory shape ---------------------------------------------------
    val fMem = spfresh.map(_.memoryMb).max
    val dMem = diskann.map(_.memoryMb).max
    assert(fMem < dMem, f"SPFresh peak mem ($fMem%.2fMB) must stay below DiskANN ($dMem%.2fMB)")
    println(f"peak mem: SPFresh=$fMem%.2fMB DiskANN=$dMem%.2fMB ratio=${dMem / fMem}%.2fx (paper: >=5.3x)")

    // --- rebalance activity is sparse (paper: 0.4% of inserts) ----------
    val totalInserts = epochs * math.max(1, (baseN * cfg.updateRate).toInt)
    val totalSplits = spfresh.map(_.splits).sum
    assert(totalSplits.toDouble / totalInserts < 0.25,
      s"splits must be rare relative to inserts: $totalSplits/$totalInserts")
  }

  test("Table 2 / Fig 7: stationary workload (SIFT-like) — SPANN+ ~ SPFresh") {
    val cfg = SimConfig(baseN = baseN, epochs = math.max(5, epochs / 2), shifted = false)
    val w = UpdateSimulation.workload(cfg)
    val spfresh = UpdateSimulation.runClusterEngine(w, rebalance = true)
    val spannPlus = UpdateSimulation.runClusterEngine(w, rebalance = false)
    println(s"=== Table 2 / Fig 7, Workload B (stationary), baseN=$baseN ===")
    println(UpdateSimulation.render("SPFresh", spfresh))
    println(UpdateSimulation.render("SPANN+", spannPlus))
    printCensus(spfresh, spannPlus)

    // Paper: "SPANN+ achieves similar performance with SPFresh on the SIFT
    // dataset, which is almost uniformly distributed."
    assert(math.abs(spfresh.last.recall - spannPlus.last.recall) <= 0.03,
      f"stationary recall gap must be small: ${spfresh.last.recall}%.3f vs ${spannPlus.last.recall}%.3f")
    val fLate = lastQuarter(spfresh, _.searchP999Ms)
    val pLate = lastQuarter(spannPlus, _.searchP999Ms)
    assert(pLate <= 2.0 * math.max(0.2, fLate),
      f"stationary SPANN+ P99.9 ($pLate%.2f) must stay near SPFresh ($fLate%.2f)")
  }
}
