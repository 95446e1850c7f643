package repro.core.distributed

import java.nio.file.Files

import repro.{LireInvariants, SparkSpec}
import org.apache.spark.sql.functions.col

import repro.core.{Lire, LireConfig, VectorMath}
import repro.data.{GroundTruth, VectorGen}

/** Distributed LIRE rebalancer: split rounds, GC, reassignment, merges, and
  * §3.4 convergence — all as Spark jobs over the Parquet lake.
  */
class DistRebalancerSpec extends SparkSpec {
  private val dim = 4
  private val cfg = LireConfig(splitLimit = 32, mergeThreshold = 4, reassignRange = 8,
    searchProbes = 8)

  private def mix(seed: Long = 1) = VectorGen.mixture(dim, 4, seed)

  private def fresh(n: Int, seed: Long = 1): (DistIndex, IndexedSeq[VectorGen.Vec]) = {
    val base = VectorGen.draw(mix(seed), n, 0, seed + 1)
    val root = Files.createTempDirectory("distreb").toString
    val idx = DistIndex.build(spark, root, VectorGen.toDf(spark, base), dim, cfg, seed = seed)
    (idx, base)
  }

  /** LIRE's invariants over the lake's live rows: no oversized posting, no
    * missing vector, and NPA violations within the lake's 5% tolerance.
    * Batch semantics check a bounded reassign range per round (the paper's
    * own trade-off, §3.3/Fig 11), so a small residual violation rate is
    * expected — it must just stay marginal.
    */
  private def assertInvariants(idx: DistIndex): Unit = {
    val rows = idx.postings.filter(LakeChecks.liveUdf(idx)(col("vid"), col("version")))
      .select("pid", "vid", "vec").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getSeq[Float](2).toArray)).toSeq
    val inv = LireInvariants.check(rows, v => idx.centroids.nearest(v, 1).head._1, cfg.splitLimit,
      idx.versions.liveIds)
    assert(inv.oversized.isEmpty, s"oversized postings after rebalance: ${inv.oversized}")
    assert(inv.missing.isEmpty, s"live vectors without a live replica: ${inv.missing}")
    val violations = inv.npaViolations.size
    assert(violations <= inv.vectors / 20, s"NPA violations: $violations/${inv.vectors}")
  }

  test("a balanced index needs no rebalancing (no-op run)") {
    val (idx, _) = fresh(200)
    val stats = new DistRebalancer(idx).run()
    assert(stats.splits == 0 && stats.merges == 0)
    assert(stats.rounds == 1)
  }

  test("an insert storm is rebalanced back under the split limit") {
    val (idx, _) = fresh(200)
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(), 400, 10000, seed = 5)))
    LakeChecks.tableMatchesScan(idx, "after the storm's insert")
    val stats = new DistRebalancer(idx).run()
    assert(stats.splits > 0)
    assert(idx.rawSizes().values.forall(_ <= cfg.splitLimit),
      s"oversized postings remain: ${idx.rawSizes().values.max}")
    LakeChecks.tableMatchesScan(idx, "after the storm's rebalance")
    // The splits hide rows, but no more than the lake holds visible ones.
    LakeChecks.hiddenWithinVisible(idx)
    LakeChecks.noUnreferencedFiles(idx)
  }

  test("the lake's root holds only its manifest and listed data files after an insert, a rebalance and a compaction") {
    val (idx, _) = fresh(200)
    LakeChecks.noUnreferencedFiles(idx)
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(), 400, 10000, seed = 5)))
    LakeChecks.noUnreferencedFiles(idx)
    assert(new DistRebalancer(idx).run().splits > 0)
    LakeChecks.noUnreferencedFiles(idx)
    // One-vector inserts add a file each, until the file list reaches
    // Spark's listing threshold and a commit compacts the lake.
    val more = VectorGen.draw(mix(), 64, 20000, seed = 6).iterator
    while (!idx.files.exists(_.contains("-compact-")) && more.hasNext)
      idx.insertBatch(VectorGen.toDf(spark, Seq(more.next())))
    assert(idx.files.exists(_.contains("-compact-")), s"no compaction: ${idx.files}")
    LakeChecks.noUnreferencedFiles(idx)
  }

  test("hot-spot inserts converge despite cascades (§3.4)") {
    val (idx, _) = fresh(150, seed = 3)
    val hot = VectorGen.Mixture(IndexedSeq(mix(3).centers.head), IndexedSeq(1.0), 2.0)
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(hot, 300, 10000, seed = 7)))
    val stats = new DistRebalancer(idx).run(maxRounds = 30)
    assert(stats.rounds < 30, "rebalance did not converge")
    assert(idx.rawSizes().values.forall(_ <= cfg.splitLimit))
  }

  test("splits garbage-collect tombstoned rows") {
    val (idx, base) = fresh(200, seed = 5)
    // Tombstone many vectors, then force their postings over the limit.
    idx.deleteBatch(base.take(100).map(_.id))
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(5), 300, 10000, seed = 9)))
    val rawBefore = idx.rawSizes().values.sum
    new DistRebalancer(idx).run()
    val stillThere = idx.postings.select("vid").collect().map(_.getLong(0)).toSet
    val goneCount = base.take(100).count(v => !stillThere.contains(v.id))
    assert(goneCount > 0, "GC should physically remove some tombstoned rows")
    assert(rawBefore > 0)
  }

  test("NPA holds after rebalance: nearest centroid hosts a live replica") {
    val (idx, _) = fresh(200, seed = 7)
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(7), 400, 10000, seed = 11)))
    new DistRebalancer(idx).run()
    assertInvariants(idx)
  }

  test("reassignment moves bump versions (stale replicas left behind)") {
    val (idx, _) = fresh(150, seed = 9)
    val hot = VectorGen.Mixture(IndexedSeq(mix(9).centers.head), IndexedSeq(1.0), 2.0)
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(hot, 300, 10000, seed = 13)))
    val stats = new DistRebalancer(idx).run()
    if (stats.reassignMoved > 0) {
      val bumped = idx.dirtyStates.count { case (_, (v, d)) => v > 0 && !d }
      assert(bumped > 0)
      assert(bumped <= stats.reassignMoved)
    }
  }

  /** A hand-made 2-D lake whose one split flags one vector (id 999) for
    * reassignment, the lake twin of `SpFreshEngineSpec`'s hand-made split.
    * Posting 0 (centroid at the origin) holds 21 vectors near (-1, 0), 20
    * near (1, 0) and vector 999 at (0, 0.5): one over the split limit.
    * Posting 1 (centroid (0, 0.6)) holds five vectors near its centroid, and
    * a live replica of vector 999 when `inPosting1`. Vector 999 ends
    * farther from both new centroids than from the old one, so Eq. 1 flags
    * it, and posting 1 is its nearest posting. Returns the lake and the
    * rows committed to it.
    */
  private def handMadeLake(inPosting1: Boolean): (DistIndex, Seq[PostingRow]) = {
    val handCfg = LireConfig(splitLimit = 41, mergeThreshold = 2, reassignRange = 4, searchProbes = 4)
    val idx = new DistIndex(spark, Files.createTempDirectory("handlake").toString, 2, handCfg)
    val sides = (0 until 41).map { i =>
      PostingRow(i.toLong, 0L, 0, Array(if (i < 21) -1f else 1f, (i % 21 - 10) * 0.01f))
    }
    val near1 = (0 until 5).map(i => PostingRow(100L + i, 1L, 0, Array((i - 2) * 0.05f, 0.6f)))
    val probe = Array(0f, 0.5f)
    val replica = if (inPosting1) Seq(PostingRow(999L, 1L, 0, probe)) else Nil
    val rows = sides ++ near1 ++ replica :+ PostingRow(999L, 0L, 0, probe)
    Seq(Array(0f, 0f), Array(0f, 0.6f)).foreach(c => idx.centroids.insert(idx.freshPid(), c))
    rows.map(_.vid).distinct.foreach(idx.versions.register)
    LakeChecks.commit(idx, rows)
    (idx, rows)
  }

  private def handMadeSplit(inPosting1: Boolean): (DistIndex, RebalanceStats) = {
    val (idx, _) = handMadeLake(inPosting1)
    (idx, new DistRebalancer(idx).run())
  }

  test("a would-be move whose target holds a live replica is not made") {
    val (idx, stats) = handMadeSplit(inPosting1 = true)
    assert(stats == RebalanceStats(rounds = 2, splits = 1, reassignChecked = 1, reassignMoved = 0))
    assert(idx.versions.currentVersion(999L) == 0, "a vector NPA already serves was moved")
  }

  test("a would-be move whose target holds no replica is made") {
    val (idx, stats) = handMadeSplit(inPosting1 = false)
    assert(stats == RebalanceStats(rounds = 2, splits = 1, reassignChecked = 1, reassignMoved = 1))
    assert(idx.versions.currentVersion(999L) == 1)
    assert(idx.postings.filter(col("vid") === 999L && col("pid") === 1L && col("version") === 1).count() == 1)
  }

  test("a split of a posting with no live row garbage-collects it to empty, as the engine's does") {
    // Posting 0 holds 41 tombstoned rows. With a merge threshold of 0 no
    // merge folds the emptied posting away.
    val handCfg = LireConfig(splitLimit = 40, mergeThreshold = 0, reassignRange = 4, searchProbes = 4)
    val idx = new DistIndex(spark, Files.createTempDirectory("deadlake").toString, 2, handCfg)
    val dead = (0 until 41).map(i => PostingRow(i.toLong, 0L, 0, Array(if (i < 21) -1f else 1f, (i % 21 - 10) * 0.01f)))
    val near1 = (0 until 5).map(i => PostingRow(100L + i, 1L, 0, Array((i - 2) * 0.05f, 0.6f)))
    Seq(Array(0f, 0f), Array(0f, 0.6f)).foreach(c => idx.centroids.insert(idx.freshPid(), c))
    (dead ++ near1).foreach(r => idx.versions.register(r.vid))
    dead.foreach(r => idx.versions.markDeleted(r.vid))
    LakeChecks.commit(idx, dead ++ near1)
    assert(new DistRebalancer(idx).run() == RebalanceStats(rounds = 2, gcOnlySplits = 1))
    assert(idx.table(0L).raw == 0 && idx.centroids.get(0L).isDefined)
    LakeChecks.tableMatchesScan(idx, "after the split of the dead posting")
  }

  test("a split round runs one one-job split read and leaves nothing cached") {
    val (idx, _) = handMadeLake(inPosting1 = false)
    val (stats, descs) = jobDescriptions(new DistRebalancer(idx).run())
    assert(stats.splits == 1 && stats.rounds == 2, stats)
    // One filtered collect, with no shuffle; the second round splits nothing.
    assert(descs.count(_ == "lake split") == 1, descs)
    assert(spark.sharedState.cacheManager.isEmpty, "a rebalance left a relation cached")
  }

  test("a rebalance run writes no shuffle bytes") {
    val (idx, _) = fresh(200)
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(), 400, 10000, seed = 5)))
    val (stats, bytes) = shuffleBytesWritten(new DistRebalancer(idx).run())
    assert(stats.splits > 0 && stats.reassignMoved > 0, stats)
    assert(bytes == 0, s"a rebalance wrote $bytes shuffle bytes")
  }

  test("split halves keep, bit for bit, the vectors their vids were committed with") {
    val (idx, rows) = handMadeLake(inPosting1 = false)
    val stats = new DistRebalancer(idx).run()
    assert(stats.splits == 1 && stats.reassignMoved == 1, stats)
    def bits(v: Array[Float]) = v.map(java.lang.Float.floatToRawIntBits).toSeq
    val committed = rows.map(r => r.vid -> bits(r.vec)).toMap
    // Posting 0's halves are the fresh postings 2 and 3.
    val halves = idx.postings.filter(col("pid") >= 2).select("vid", "pid", "vec").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getSeq[Float](2).toArray))
    assert(halves.map(_._2).toSet == Set(2L, 3L))
    assert(halves.map(_._1).sorted.toSeq == rows.filter(_.pid == 0L).map(_.vid).sorted)
    halves.foreach { case (vid, pid, vec) =>
      assert(bits(vec) == committed(vid), s"vid $vid in posting $pid lost its vector")
    }
    LakeChecks.tableMatchesScan(idx, "after the hand-made split")
  }

  /** A hand-made 2-D lake with three oversized postings (split limit 40)
    * and a reassign range of 3. Posting 0 (centroid (0, 0)) and posting 2
    * ((0, -1.6)) each hold 41 live vectors in two blobs near x = ±1, and
    * split. Posting 1 ((0, 1.5)) holds 35 live vectors spread along
    * y = 1.5 and 10 tombstoned ones: garbage collection alone fits it, and
    * it is in both splits' ranges. Posting 5 ((0, 2.5)) holds only
    * tombstoned rows and posting 3 ((0, 3)) live ones: both are in the
    * ranges too. Posting 4 ((0, 10)) lies just outside them. The rows of
    * postings 2 and 4 pass Eq. 2 against posting 0's split, so a range that
    * kept a split posting or reached too far would show.
    */
  test("a split round's Eq. 2 candidates equal a brute force over each final reassign range") {
    val handCfg = LireConfig(splitLimit = 40, mergeThreshold = 1, reassignRange = 3, searchProbes = 4)
    val idx = new DistIndex(spark, Files.createTempDirectory("eq2lake").toString, 2, handCfg)
    val centroids = IndexedSeq(Array(0f, 0f), Array(0f, 1.5f), Array(0f, -1.6f), Array(0f, 3f), Array(0f, 10f),
      Array(0f, 2.5f))
    centroids.foreach(c => idx.centroids.insert(idx.freshPid(), c))
    def blobs(pid: Long, y: Float) = (0 until 41).map { i =>
      PostingRow(100L * pid + i, pid, 0, Array(if (i < 21) -1f else 1f, y + (i % 21 - 10) * 0.01f))
    }
    def row(vid: Long, pid: Long, x: Float, y: Float) = PostingRow(vid, pid, 0, Array(x, y))
    val spread = (0 until 35).map(i => row(100L + i, 1L, -1f + 2f * i / 34, 1.5f))
    val dead = (0 until 10).map(i => row(150L + i, 1L, 0.9f, 1.5f)) ++ Seq(row(500L, 5L, 0.9f, 2.5f))
    val third = Seq(-0.9f, 0f, 0.9f).zipWithIndex.map { case (x, i) => row(300L + i, 3L, x, 3f) }
    val far = Seq(-1f, 1f).zipWithIndex.map { case (x, i) => row(400L + i, 4L, x, 10f) }
    val rows = blobs(0, 0f) ++ spread ++ dead ++ blobs(2, -1.6f) ++ third ++ far
    rows.foreach(r => idx.versions.register(r.vid))
    dead.foreach(r => idx.versions.markDeleted(r.vid))
    LakeChecks.commit(idx, rows)
    val live = rows.filterNot(r => idx.versions.isStale(r.vid, r.version))

    val stats = new DistRebalancer(idx).run(maxRounds = 1)
    // The merge round folds the empty posting 5 away.
    assert(stats.splits == 2 && stats.gcOnlySplits == 1 && stats.merges == 1, stats)
    // Posting 0's halves are the fresh postings 6 and 7, posting 2's 8 and 9.
    val halves = Map(0L -> ((6L, 7L)), 2L -> ((8L, 9L)))
    val newC = (6L to 9L).map(p => p -> idx.centroids.get(p).get).toMap
    val home = idx.postings.filter(col("pid") >= 6).select("vid", "pid").collect()
      .map(r => r.getLong(0) -> r.getLong(1)).toMap
    // Eq. 1 and the far-half rule over each split's halves.
    val cand1 = halves.toSeq.flatMap { case (old, (p0, p1)) =>
      live.filter(_.pid == old).filter { r =>
        val (own, other) = if (home(r.vid) == p0) (p0, p1) else (p1, p0)
        Lire.splitCandidate(r.vec, centroids(old.toInt), newC(own), newC(other))
      }
    }
    // Eq. 2 over each split's 3 nearest postings among those not split.
    def range(oldC: Array[Float]) =
      Seq(1L, 3L, 4L, 5L).sortBy(p => (VectorMath.sqDist(oldC, centroids(p.toInt)), p)).take(3)
    def eq2(old: Long, r: PostingRow) = {
      val (p0, p1) = halves(old)
      Lire.condition2(r.vec, centroids(old.toInt), Seq(newC(p0), newC(p1)))
    }
    val cand2 = halves.keys.toSeq.flatMap { old =>
      live.filter(r => range(centroids(old.toInt)).contains(r.pid) && eq2(old, r))
    }
    assert(halves.keys.forall(old => range(centroids(old.toInt)) == Seq(1L, 5L, 3L)))
    assert(cand2.exists(_.pid == 1L), "no Eq. 2 candidate in the GC-only posting")
    assert(live.exists(r => r.pid == 2L && eq2(0L, r)) && live.exists(r => r.pid == 4L && eq2(0L, r)))
    assert(stats.reassignChecked == (cand1 ++ cand2).map(_.vid).distinct.size)
  }

  test("every job of a rebalance carries its maintenance phase's label") {
    val labels = Set("lake settle", "lake split", "lake reassign", "lake merge", "lake compact", "lake search")
    val sc = spark.sparkContext
    def labelsOf(run: => RebalanceStats): Set[String] = {
      val ((caller, after), descs) = jobDescriptions {
        val caller = sc.getLocalProperty("spark.job.description")
        run
        (caller, sc.getLocalProperty("spark.job.description"))
      }
      assert(after == caller, "the caller's job description was not given back")
      assert(descs.nonEmpty && descs.forall(labels), s"jobs without a phase label: ${descs.filterNot(labels)}")
      // The driver writes every commit's rows itself.
      assert(!descs.contains("lake commit"), s"a commit ran a Spark job: $descs")
      descs.toSet
    }
    val (storm, stormBase) = fresh(200)
    storm.deleteBatch(stormBase.take(20).map(_.id))
    storm.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(), 400, 10000, seed = 5)))
    assert(Set("lake split", "lake reassign").subsetOf(labelsOf(new DistRebalancer(storm).run())))
    val (drained, base) = fresh(300, seed = 11)
    val c = mix(11).centers.head
    drained.deleteBatch(base.sortBy(v => VectorMath.sqDist(v.vec, c)).take(200).map(_.id))
    assert(Set("lake settle", "lake merge").subsetOf(labelsOf(new DistRebalancer(drained).run())))
  }

  test("lake reads run no SQL query") {
    import spark.implicits._
    val reads = Set("lake split", "lake reassign", "lake merge", "lake settle", "lake search")
    // The read labels of the jobs `body` launched, each checked to run
    // outside a SQL execution (compaction, a Spark write, is not a read).
    def readsOf(body: => Any): Set[String] = {
      val read = jobProperties(body)._2
        .map(p => (p.getProperty("spark.job.description"), p.getProperty("spark.sql.execution.id")))
        .filter(j => reads(j._1))
      val sql = read.collect { case (label, execution) if execution != null => label }
      assert(sql.isEmpty, "lake reads ran as SQL queries")
      read.map(_._1).toSet
    }
    val (storm, stormBase) = fresh(200)
    storm.deleteBatch(stormBase.take(20).map(_.id))
    storm.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(), 400, 10000, seed = 5)))
    assert(Set("lake split", "lake reassign").subsetOf(readsOf(new DistRebalancer(storm).run())))
    val queries = stormBase.drop(20).take(10).map(v => (v.id, v.vec)).toDF("qid", "qvec")
    assert(readsOf(storm.search(queries, k = 10).collect()) == Set("lake search"))
    val (drained, base) = fresh(300, seed = 11)
    val c = mix(11).centers.head
    drained.deleteBatch(base.sortBy(v => VectorMath.sqDist(v.vec, c)).take(200).map(_.id))
    assert(Set("lake settle", "lake merge").subsetOf(readsOf(new DistRebalancer(drained).run())))
  }

  test("a rebalance's commits and reads run no Catalyst rule") {
    import org.apache.spark.sql.catalyst.rules.RuleExecutor
    val (idx, _) = fresh(200)
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(), 400, 10000, seed = 5)))
    RuleExecutor.resetMetrics()
    val stats = new DistRebalancer(idx).run()
    assert(stats.splits > 0 && stats.rounds > 1, stats)
    val metrics = RuleExecutor.getCurrentMetrics()
    assert(metrics.numRuns == 0, s"${metrics.numRuns} Catalyst rule runs took ${metrics.time / 1000000} ms")
  }

  test("a split round allocates fresh pids in ascending old-pid order") {
    // Six postings far apart, each one vector over the limit: posting i
    // (centroid (10i, 0)) holds vids 100i until 100i + 41 in two blobs.
    val handCfg = LireConfig(splitLimit = 40, mergeThreshold = 2, reassignRange = 4, searchProbes = 4)
    val idx = new DistIndex(spark, Files.createTempDirectory("pidlake").toString, 2, handCfg)
    val postings = 0 until 6
    val rows = for (i <- postings; j <- 0 until 41) yield
      PostingRow(100L * i + j, i.toLong, 0, Array(10f * i + (if (j < 21) -1f else 1f), (j % 21 - 10) * 0.01f))
    postings.foreach(i => idx.centroids.insert(idx.freshPid(), Array(10f * i, 0f)))
    rows.foreach(r => idx.versions.register(r.vid))
    // Committed in descending pid order, so the split read returns the
    // postings out of order; the pids must not depend on that.
    LakeChecks.commit(idx, rows.reverse)
    assert(new DistRebalancer(idx).run(maxRounds = 1).splits == postings.length)
    val origins = idx.postings.select("pid", "vid").collect()
      .groupMap(_.getLong(0))(_.getLong(1) / 100).view.mapValues(_.toSet).toMap
    // Old posting i's halves are the (2i)-th and (2i+1)-th fresh pids.
    assert(origins == postings.flatMap(i => Seq(6L + 2 * i, 7L + 2 * i).map(_ -> Set(i.toLong))).toMap)
  }

  test("mass deletion triggers merges that remove centroids") {
    val (idx, base) = fresh(300, seed = 11)
    val before = idx.centroidSnapshot.length
    // Empty out one spatial region.
    val c = mix(11).centers.head
    val near = base.sortBy(v => VectorMath.sqDist(v.vec, c)).take(200).map(_.id)
    idx.deleteBatch(near)
    LakeChecks.tableMatchesScan(idx, "after the mass deletion")
    val stats = new DistRebalancer(idx).run()
    assert(stats.merges > 0, "mass deletion should merge starved postings")
    assert(idx.centroidSnapshot.length < before)
    LakeChecks.tableMatchesScan(idx, "after the merges")
  }

  test("rebalance counts are pinned: insert storm and mass deletion") {
    // Exact counts of two seeded scenarios: any change to what the lake's
    // LIRE does (not only how fast) shows here, and the storm's Spark job
    // count shows any change to how many passes it makes over the lake.
    val (storm, _) = fresh(200)
    storm.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(), 400, 10000, seed = 5)))
    val (stormStats, stormJobs) = countJobs(new DistRebalancer(storm).run())
    assert(stormStats == RebalanceStats(rounds = 4, splits = 15,
      gcOnlySplits = 2, merges = 0, reassignChecked = 380, reassignMoved = 40))
    assert(stormJobs == 5)
    assert(storm.commits == 5)
    assert(storm.centroidSnapshot.length == 31)

    val (drained, base) = fresh(300, seed = 11)
    val c = mix(11).centers.head
    drained.deleteBatch(base.sortBy(v => VectorMath.sqDist(v.vec, c)).take(200).map(_.id))
    assert(new DistRebalancer(drained).run() == RebalanceStats(rounds = 5, splits = 0,
      gcOnlySplits = 0, merges = 14, reassignChecked = 3, reassignMoved = 2))
    assert(drained.commits == 5)
    assert(drained.centroidSnapshot.length == 8)
  }

  /** Three epochs of shifted updates (10% deletes, 10% inserts from
    * `pool`, then a rebalance), checking the posting table against the
    * lake after every step and LIRE's invariants after every rebalance.
    * Returns the live vectors.
    */
  private def shiftedEpochs(idx: DistIndex, base: Seq[VectorGen.Vec],
                            pool: VectorGen.Mixture, seed: Long): Map[Long, Array[Float]] = {
    var live = base.map(v => (v.id, v.vec)).toMap
    var nextId = 10000L
    (1 to 3).foreach { ep =>
      val (dels, ins) = VectorGen.epoch(live.keys.toIndexedSeq.sorted, pool, 0.10, nextId, seed = seed + ep)
      idx.deleteBatch(dels)
      LakeChecks.tableMatchesScan(idx, s"after epoch $ep's deletes")
      idx.insertBatch(VectorGen.toDf(spark, ins))
      LakeChecks.tableMatchesScan(idx, s"after epoch $ep's inserts")
      dels.foreach(live -= _)
      ins.foreach(v => live += (v.id -> v.vec))
      nextId += ins.length
      new DistRebalancer(idx).run()
      LakeChecks.tableMatchesScan(idx, s"after epoch $ep's rebalance")
      assertInvariants(idx)
    }
    live
  }

  private def searchAll(idx: DistIndex, qs: Seq[Array[Float]]): Seq[(Long, Long, Int)] = {
    import spark.implicits._
    val queries = qs.zipWithIndex.map { case (q, i) => (i.toLong, q) }.toDF("qid", "qvec")
    idx.search(queries, k = 10).collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSeq.sorted
  }

  test("search recall stays high across update + rebalance epochs") {
    val (idx, base) = fresh(300, seed = 13)
    val pool = VectorGen.shifted(mix(13), seed = 14)
    val live = shiftedEpochs(idx, base, pool, seed = 17)
    val qs = VectorGen.queries(pool, 15, seed = 23)
    val got = searchAll(idx, qs).groupBy(_._1).view.mapValues(_.sortBy(_._3).map(_._2)).toMap
    val data = live.toSeq
    val recalls = qs.zipWithIndex.map { case (q, i) =>
      GroundTruth.recall(got.getOrElse(i.toLong, Seq.empty), GroundTruth.topK(q, data, 10))
    }
    val mean = recalls.sum / recalls.length
    assert(mean >= 0.85, s"post-rebalance recall too low: $mean")
  }

  test("a reopened index gives the search results, posting table and centroids it committed") {
    val (idx, base) = fresh(300, seed = 19)
    val pool = VectorGen.shifted(mix(19), seed = 20)
    shiftedEpochs(idx, base, pool, seed = 21)
    val reopened = DistIndex.open(spark, idx.rootDir)
    assert(reopened.table == idx.table)
    assert(reopened.centroidSnapshot.map { case (p, c) => p -> c.toSeq }.toMap ==
      idx.centroidSnapshot.map { case (p, c) => p -> c.toSeq }.toMap)
    assert(reopened.versions.snapshot() == idx.versions.snapshot())
    assert(reopened.commits == idx.commits && reopened.nextPid == idx.nextPid)
    val qs = VectorGen.queries(pool, 15, seed = 25)
    assert(searchAll(reopened, qs) == searchAll(idx, qs))
  }

  test("open ignores a data file written without its manifest rename") {
    import org.apache.spark.sql.functions.lit
    val (idx, base) = fresh(200, seed = 23)
    idx.deleteBatch(base.take(10).map(_.id))
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(23), 40, 10000, seed = 24)))
    // A commit that crashed after writing its rows and before renaming its
    // manifest: a data file under the name the next commit uses, with rows
    // that would be visible, and a half-written manifest temp file.
    val root = java.nio.file.Paths.get(idx.rootDir)
    val staged = root.resolve("crashed")
    idx.postings.withColumn("seq", lit(idx.commits)).coalesce(1).write.parquet(staged.toString)
    val part = Files.list(staged).filter(_.getFileName.toString.endsWith(".parquet")).findFirst().get
    Files.move(part, root.resolve("data").resolve(f"${idx.commits}%06d-c-0.parquet"))
    Files.write(root.resolve(DistIndex.ManifestName + ".tmp"), Array[Byte](1, 2, 3))

    val reopened = DistIndex.open(spark, idx.rootDir)
    assert(LakeChecks.rawSizesAndLive(reopened) == LakeChecks.rawSizesAndLive(idx))
    val qs = VectorGen.queries(mix(23), 10, seed = 25)
    assert(searchAll(reopened, qs) == searchAll(idx, qs))
    // The reopened index commits over the debris.
    reopened.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(23), 40, 20000, seed = 26)))
    new DistRebalancer(reopened).run()
    LakeChecks.tableMatchesScan(reopened, "after a commit over a crashed one")
  }

  test("rebalancing improves worst-case probe cost under skewed inserts") {
    val (idxA, _) = fresh(200, seed = 15)
    val hot = VectorGen.Mixture(IndexedSeq(mix(15).centers.head), IndexedSeq(1.0), 2.0)
    val ins = VectorGen.draw(hot, 400, 10000, seed = 19)
    idxA.insertBatch(VectorGen.toDf(spark, ins))
    val costBefore = idxA.queryIoBlocks(Seq(hot.centers.head), probes = 4).head
    new DistRebalancer(idxA).run()
    val costAfter = idxA.queryIoBlocks(Seq(hot.centers.head), probes = 4).head
    assert(costAfter < costBefore,
      s"split should shrink hot-region probe cost: $costBefore -> $costAfter")
  }
}
