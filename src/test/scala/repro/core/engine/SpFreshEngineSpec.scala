package repro.core.engine

import scala.collection.mutable

import repro.{LireInvariants, SparkSpec}
import repro.centroid.CentroidIndex
import repro.core.{LireConfig, VectorMath}
import repro.data.{GroundTruth, VectorGen}
import repro.storage.{BlockController, IoDelta, VectorRecord}

/** The single-node SPFresh engine: build, insert/delete, search recall,
  * split/merge/reassign behavior, NPA maintenance, and §3.4 convergence.
  */
class SpFreshEngineSpec extends SparkSpec {
  private val dim = 8
  private val cfg = LireConfig(splitLimit = 32, mergeThreshold = 4, reassignRange = 8,
    searchProbes = 8)

  private def mix(seed: Long = 1) = VectorGen.mixture(dim, 6, seed)

  private def fresh(n: Int, seed: Long = 1): (SpFreshEngine, IndexedSeq[VectorGen.Vec]) = {
    val base = VectorGen.draw(mix(seed), n, 0, seed + 1)
    val e = new SpFreshEngine(dim, cfg, seed = seed)
    e.buildInitial(base.map(v => (v.id, v.vec)))
    (e, base)
  }

  /** LIRE's invariants over the engine's live records: no oversized posting,
    * no missing vector, and NPA violations within the engine's 1% tolerance
    * (after a full drain it should be essentially zero).
    */
  private def assertInvariants(e: SpFreshEngine): Unit = {
    val rows = e.store.postingIds.toSeq.flatMap { pid =>
      e.store.get(pid).filter(r => !e.versions.isStale(r.vid, r.version)).map(r => (pid, r.vid, r.vec))
    }
    val inv = LireInvariants.check(rows, v => e.centroids.nearest(v, 1).head._1, cfg.splitLimit,
      e.versions.liveIds)
    assert(inv.oversized.isEmpty, s"oversized postings after drain: ${inv.oversized}")
    assert(inv.missing.isEmpty, s"live vectors without a live replica: ${inv.missing}")
    val violations = inv.npaViolations.size
    assert(violations <= inv.vectors / 100,
      s"NPA violations after drain: $violations / ${inv.vectors}")
  }

  test("buildInitial produces postings within the split limit") {
    val (e, _) = fresh(400)
    assert(e.livePostingSizes().values.forall(_ <= cfg.splitLimit))
  }

  test("buildInitial registers every vector as live") {
    val (e, base) = fresh(200)
    assert(base.forall(v => e.versions.isLive(v.id)))
  }

  test("search finds built vectors with high recall") {
    val (e, base) = fresh(500)
    val data = base.map(v => (v.id, v.vec))
    val qs = VectorGen.queries(mix(), 30, seed = 7)
    val recalls = qs.map { q =>
      GroundTruth.recall(e.search(q, 10).ids, GroundTruth.topK(q, data, 10))
    }
    val mean = recalls.sum / recalls.length
    assert(mean >= 0.9, s"build recall too low: $mean")
  }

  test("insert places a vector in its nearest posting and makes it searchable") {
    val (e, _) = fresh(300)
    val v = VectorGen.draw(mix(), 1, 9999, seed = 11).head
    e.insert(v.id, v.vec)
    assert(e.search(v.vec, 5).ids.contains(v.id))
  }

  test("insert into an empty index is rejected") {
    val e = new SpFreshEngine(dim, cfg)
    intercept[IllegalArgumentException](e.insert(1L, Array.fill(dim)(0f)))
  }

  test("deleted vectors disappear from search results") {
    val (e, base) = fresh(300)
    val victim = base.head
    assert(e.search(victim.vec, 5).ids.contains(victim.id))
    e.delete(victim.id)
    assert(!e.search(victim.vec, 5).ids.contains(victim.id))
  }

  test("an insert storm triggers splits that keep live sizes bounded") {
    val (e, _) = fresh(300)
    VectorGen.draw(mix(), 600, 10000, seed = 13).foreach(v => e.insert(v.id, v.vec))
    e.drainJobs()
    val sizes = e.livePostingSizes().values
    assert(sizes.forall(_ <= cfg.splitLimit), s"oversized after drain: ${sizes.max}")
    assert(e.stats.splitsExecuted > 0, "storm should have split something")
  }

  test("split-reassign cascades converge (§3.4: drain terminates)") {
    val (e, _) = fresh(200)
    // Concentrated inserts into one region force repeated splits + reassigns.
    val hot = VectorGen.Mixture(IndexedSeq(mix().centers.head), IndexedSeq(1.0), 2.0)
    VectorGen.draw(hot, 800, 20000, seed = 17).foreach(v => e.insert(v.id, v.vec))
    val processed = e.drainJobs()
    assert(processed > 0)
    assert(e.pendingJobs == 0)
    assert(e.livePostingSizes().values.forall(_ <= cfg.splitLimit))
  }

  test("NPA holds after rebalance: every live vector's nearest centroid hosts a replica") {
    val (e, _) = fresh(300)
    VectorGen.draw(mix(), 300, 30000, seed = 19).foreach(v => e.insert(v.id, v.vec))
    e.drainJobs()
    assertInvariants(e)
  }

  test("merge absorbs a posting drained by deletions") {
    val (e, base) = fresh(400, seed = 3)
    // Delete almost everything near one cluster center to starve postings.
    val c = mix(3).centers.head
    val near = base.sortBy(v => VectorMath.sqDist(v.vec, c)).take(150)
    near.foreach(v => e.delete(v.id))
    // Searches in that region notice undersized postings and enqueue merges.
    (1 to 20).foreach(_ => e.search(c, 10))
    e.drainJobs()
    assert(e.stats.merges > 0, "deletion storm should have merged something")
    val sizes = e.livePostingSizes().values
    assert(sizes.forall(_ <= cfg.splitLimit))
  }

  test("stale replicas are garbage collected by splits") {
    val (e, _) = fresh(300, seed = 5)
    VectorGen.draw(mix(5), 900, 40000, seed = 23).foreach(v => e.insert(v.id, v.vec))
    e.drainJobs()
    // After GC inside splits, raw sizes may exceed live but never wildly:
    val raw = e.rawPostingSizes()
    val live = e.livePostingSizes()
    raw.keys.foreach { pid =>
      assert(raw(pid) <= cfg.splitLimit + cfg.mergeThreshold || live(pid) > 0)
      assert(raw(pid) <= 2 * cfg.splitLimit, s"posting $pid runaway raw size ${raw(pid)}")
    }
  }

  test("reassign bumps versions so old replicas go stale") {
    val (e, _) = fresh(300, seed = 7)
    VectorGen.draw(mix(7), 500, 50000, seed = 29).foreach(v => e.insert(v.id, v.vec))
    e.drainJobs()
    if (e.stats.reassignExecuted > 0) {
      val bumped = e.versions.liveIds.count(v => e.versions.currentVersion(v) > 0)
      assert(bumped > 0, "executed reassigns must be visible as version bumps")
    }
  }

  /** A hand-made 2-D engine whose one split flags the vectors `flagged`
    * for reassignment. Posting 0 (centroid at the origin) holds 20 vectors
    * near (-1, 0), 20 near (1, 0) and the flagged vectors near (0, 0.5);
    * posting 1 (centroid (0, 0.6)) holds five vectors near its centroid,
    * plus replicas of each flagged vector at the versions `inPosting1`.
    * The flagged vectors are at version `version`, also their replicas in
    * posting 0. An insert at (-1, 0) overfills posting 0; its split leaves
    * each flagged vector farther from both new centroids than from the old
    * one, so Eq. 1 flags it, and posting 1 is its nearest posting. Returns
    * the drained engine and the block I/O of the split's reassign job.
    */
  private def handMadeSplit(version: Int, inPosting1: Seq[Int],
                            flagged: Seq[Long] = Seq(999L)): (SpFreshEngine, IoDelta) = {
    val handCfg = LireConfig(splitLimit = 40 + flagged.size, mergeThreshold = 2, reassignRange = 4,
      searchProbes = 4)
    val sides = (0 until 40).map { i =>
      VectorRecord(i.toLong, 0, Array(if (i < 20) -1f else 1f, (i % 20 - 10) * 0.01f))
    }
    val near1 = (0 until 5).map(i => VectorRecord(100L + i, 0, Array((i - 2) * 0.05f, 0.6f)))
    val probes = flagged.zipWithIndex.map { case (vid, i) => VectorRecord(vid, version, Array(i * 0.02f, 0.5f)) }
    val store = new BlockController(2)
    store.put(0L, sides ++ probes)
    store.put(1L, near1 ++ probes.flatMap(p => inPosting1.map(v => p.copy(version = v))))
    val e = new SpFreshEngine(2, handCfg, attachedStore = Some(store))
    e.restoreCentroids(Map(0L -> Array(0f, 0f), 1L -> Array(0f, 0.6f)), 2L)
    (sides ++ near1).foreach(r => e.versions.register(r.vid))
    flagged.foreach { vid =>
      e.versions.register(vid)
      (0 until version).foreach(v => e.versions.tryBumpVersion(vid, v))
    }
    e.insert(500L, Array(-1f, 0f))
    assert(e.drainJobs(max = 1) == 1 && e.pendingJobs == 1) // the split, which queues one reassign job
    val (_, io) = store.io.measure(e.drainJobs())
    assert(e.stats.splitsExecuted == 1 && e.stats.reassignChecked == flagged.size, e.stats.toString)
    (e, io)
  }

  test("reassign leaves a vector whose nearest posting holds its live replica") {
    val (e, _) = handMadeSplit(version = 0, inPosting1 = Seq(0))
    assert(e.versions.currentVersion(999L) == 0, "a vector NPA already serves was moved")
    assert(e.stats.reassignExecuted == 0 && e.stats.reassignAborted == 1)
    assertInvariants(e)
  }

  test("reassign moves a vector whose nearest posting holds no live replica") {
    Seq(0 -> Seq.empty[Int], 1 -> Seq(0)).foreach { case (version, inPosting1) =>
      val (e, _) = handMadeSplit(version, inPosting1)
      assert(e.versions.currentVersion(999L) == version + 1, s"not moved with $inPosting1 in posting 1")
      assert(e.stats.reassignExecuted == 1)
      assert(e.store.get(1L).exists(r => r.vid == 999L && r.version == version + 1))
      assertInvariants(e)
    }
  }

  test("a reassign job reads a nearest posting once for all its movers") {
    // Both flagged vectors would move to posting 1, which holds a live
    // replica of each: the job reads posting 1 once and writes nothing.
    val (e, io) = handMadeSplit(version = 0, inPosting1 = Seq(0), flagged = Seq(998L, 999L))
    assert(e.stats.reassignAborted == 2)
    assert(io == IoDelta(reads = e.store.blockCount(1L), writes = 0))
  }

  test("a split of a posting with no live record garbage-collects it to empty") {
    // Posting 0 holds 40 tombstoned vectors; an insert fills it past the
    // limit and is deleted before the split job runs.
    val handCfg = LireConfig(splitLimit = 40, mergeThreshold = 2, reassignRange = 4, searchProbes = 4)
    val dead = (0 until 40).map(i => VectorRecord(i.toLong, 0, Array(if (i < 20) -1f else 1f, (i % 20 - 10) * 0.01f)))
    val store = new BlockController(2)
    store.put(0L, dead)
    store.put(1L, (0 until 5).map(i => VectorRecord(100L + i, 0, Array((i - 2) * 0.05f, 0.6f))))
    val e = new SpFreshEngine(2, handCfg, attachedStore = Some(store))
    e.restoreCentroids(Map(0L -> Array(0f, 0f), 1L -> Array(0f, 0.6f)), 2L)
    (0L until 40L).foreach { vid => e.versions.register(vid); e.delete(vid) }
    (100L until 105L).foreach(e.versions.register)
    e.insert(500L, Array(-1f, 0f))
    assert(store.length(0L) == 41 && e.pendingJobs == 1)
    e.delete(500L)
    e.drainJobs()
    assert(e.stats.gcOnlySplits == 1 && e.stats.splitsExecuted == 0, e.stats.toString)
    assert(store.length(0L) == 0 && e.centroids.get(0L).isDefined && e.pendingJobs == 0)
  }

  test("re-inserting a deleted id does not revive its old replicas") {
    val (e, base) = fresh(300)
    val victim = base.head
    val moved = victim.vec.map(_ + 1f)
    e.delete(victim.id)
    e.insert(victim.id, moved)
    val live = e.store.postingIds.toSeq.flatMap(e.store.get)
      .filter(r => r.vid == victim.id && !e.versions.isStale(r.vid, r.version))
    assert(live.nonEmpty, "the re-inserted vector must be live")
    assert(live.forall(_.vec.sameElements(moved)), "an old replica of the re-inserted id is live again")
    assert(e.versions.currentVersion(victim.id) == 1)
  }

  test("recall stays high through an update cycle (insert+delete+drain)") {
    val (e, base) = fresh(600, seed = 9)
    var live = base.map(v => (v.id, v.vec)).toMap
    val pool = VectorGen.mixture(dim, 6, seed = 9)
    var nextId = 10000L
    (1 to 5).foreach { ep =>
      val (dels, ins) = VectorGen.epoch(live.keys.toIndexedSeq.sorted, pool, 0.05, nextId, seed = 31 + ep)
      dels.foreach { id => e.delete(id); live -= id }
      ins.foreach { v => e.insert(v.id, v.vec); live += (v.id -> v.vec) }
      nextId += ins.length
      e.drainJobs()
      assertInvariants(e)
    }
    val qs = VectorGen.queries(pool, 30, seed = 37)
    val data = live.toSeq
    val recalls = qs.map(q => GroundTruth.recall(e.search(q, 10).ids, GroundTruth.topK(q, data, 10)))
    val mean = recalls.sum / recalls.length
    assert(mean >= 0.85, s"post-update recall too low: $mean")
  }

  test("search cost scales with probe count") {
    val (e, _) = fresh(500, seed = 11)
    val q = VectorGen.queries(mix(11), 1, seed = 41).head
    val lo = e.search(q, 10, probes = 2).cost.io.reads
    val hi = e.search(q, 10, probes = 8).cost.io.reads
    assert(hi > lo)
  }

  test("meanReplicas reflects closure replication") {
    val (e, _) = fresh(400, seed = 15)
    val m = e.meanReplicas()
    assert(m >= 1.0 && m <= cfg.maxReplicas.toDouble, s"implausible replica mean: $m")
  }

  test("rebalance-disabled engine (SPANN+) never splits, merges, or reassigns") {
    val e = new SpFreshEngine(dim, cfg, rebalanceEnabled = false)
    val base = VectorGen.draw(mix(17), 300, 0, seed = 47)
    e.buildInitial(base.map(v => (v.id, v.vec)))
    VectorGen.draw(mix(17), 600, 10000, seed = 53).foreach(v => e.insert(v.id, v.vec))
    (1 to 10).foreach(_ => e.search(base.head.vec, 10))
    e.drainJobs()
    assert(e.stats.splitsExecuted == 0 && e.stats.merges == 0 && e.stats.reassignExecuted == 0)
    assert(e.livePostingSizes().values.max > cfg.splitLimit, "SPANN+ postings must grow unbounded")
  }

  test("stats counters are coherent") {
    val (e, _) = fresh(300, seed = 19)
    VectorGen.draw(mix(19), 400, 60000, seed = 59).foreach(v => e.insert(v.id, v.vec))
    e.drainJobs()
    assert(e.stats.inserts == 400)
    assert(e.stats.reassignExecuted + e.stats.reassignAborted <= e.stats.reassignChecked)
  }

  test("drainJobs with a budget stops early and can resume") {
    val (e, _) = fresh(300, seed = 21)
    val hot = VectorGen.Mixture(IndexedSeq(mix(21).centers.head), IndexedSeq(1.0), 2.0)
    VectorGen.draw(hot, 400, 70000, seed = 61).foreach(v => e.insert(v.id, v.vec))
    val first = e.drainJobs(max = 1)
    assert(first <= 1)
    e.drainJobs()
    assert(e.pendingJobs == 0)
  }

  test("engine counts are pinned: shifted churn") {
    // Exact counts of one seeded shifted-churn trace: any change to what the
    // engine's LIRE does (not only how fast) shows here.
    val mixture = VectorGen.mixture(dim, 6, seed = 81)
    val pool = VectorGen.shifted(mixture, seed = 82)
    val base = VectorGen.draw(mixture, 1500, 0, seed = 83).map(v => (v.id, v.vec))
    val e = new SpFreshEngine(dim, cfg, seed = 84)
    e.buildInitial(base)
    var live = base.map(_._1)
    var nextId = 10000L
    (1 to 5).foreach { ep =>
      val (dels, ins) = VectorGen.epoch(live, pool, 0.08, nextId, seed = 85 + ep)
      dels.foreach(e.delete)
      ins.foreach(v => e.insert(v.id, v.vec))
      e.drainJobs()
      VectorGen.queries(pool, 20, seed = 90 + ep).foreach(q => e.search(q, 10))
      e.drainJobs()
      live = live.filterNot(dels.toSet) ++ ins.map(_.id)
      nextId += ins.length
    }
    // Then starve one region so that searches there trigger merges.
    val c = mixture.centers.head
    val vecs = base.toMap
    live.filter(vecs.contains).sortBy(id => VectorMath.sqDist(vecs(id), c)).take(250).foreach(e.delete)
    (1 to 5).foreach(_ => e.search(c, 10))
    e.drainJobs()
    val top = VectorGen.queries(pool, 3, seed = 99).map(q => e.search(q, 10).ids.toList).toList
    assert(e.stats.toString == "inserts=600 deletes=850 splitJobs=88 splits=39 gcOnly=49 merges=7 " +
      "reassignChecked=2383 reassignExecuted=90 aborted=2293 cascades=14")
    assert(e.centroids.size == 128)
    assert(top == List(
      List(10473, 10423, 10227, 10237, 10224, 10399, 10060, 10011, 10372, 10443),
      List(786, 1043, 458, 281, 10010, 273, 1056, 1024, 560, 827),
      List(10434, 10497, 10162, 10566, 1475, 10580, 10274, 10509, 10230, 10113)))
  }

  /** The pre-selection centroid index: score every centroid, sort, take k. */
  private final class SortingCentroidIndex extends CentroidIndex {
    private val map = mutable.LongMap.empty[Array[Float]]
    private var distComps = 0L
    override def insert(pid: Long, centroid: Array[Float]): Unit = map.update(pid, centroid)
    override def remove(pid: Long): Unit = map.remove(pid)
    override def get(pid: Long): Option[Array[Float]] = map.get(pid)
    override def nearest(q: Array[Float], k: Int): Seq[(Long, Double)] = {
      distComps += map.size
      map.toSeq.map { case (pid, c) => (pid, VectorMath.sqDist(q, c)) }
        .sortBy { case (pid, d) => (d, pid) }.take(k)
    }
    override def size: Int = map.size
    override def all: Iterator[(Long, Array[Float])] = map.iterator
    override def distanceComputations: Long = distComps
  }

  test("engine behaviour is identical under a full-sort centroid index") {
    val mixture = VectorGen.mixture(dim, 6, seed = 61)
    val pool = VectorGen.shifted(mixture, seed = 62)
    val base = VectorGen.draw(mixture, 2000, 0, seed = 63).map(v => (v.id, v.vec))
    val engines = Seq(new SpFreshEngine(dim, cfg, seed = 64),
      new SpFreshEngine(dim, cfg, centroids = new SortingCentroidIndex, seed = 64))
    engines.foreach(_.buildInitial(base))
    var live = base.map(_._1)
    var nextId = 10000L
    val searched = engines.map(_ => mutable.ArrayBuffer.empty[Seq[Long]])
    (1 to 4).foreach { ep =>
      val (dels, ins) = VectorGen.epoch(live, pool, 0.05, nextId, seed = 65 + ep)
      val qs = VectorGen.queries(pool, 20, seed = 70 + ep)
      engines.zip(searched).foreach { case (e, out) =>
        dels.foreach(e.delete)
        ins.foreach(v => e.insert(v.id, v.vec))
        e.drainJobs()
        qs.foreach(q => out += e.search(q, 10).ids)
      }
      live = live.filterNot(dels.toSet) ++ ins.map(_.id)
      nextId += ins.length
    }
    val Seq(a, b) = engines
    assert(a.stats.splitsExecuted > 0 && a.stats.reassignExecuted > 0, "the trace must rebalance")
    assert(a.stats.toString == b.stats.toString)
    assert(a.rawPostingSizes() == b.rawPostingSizes())
    assert(a.centroids.distanceComputations == b.centroids.distanceComputations)
    assert(searched(0) == searched(1))
  }
}
