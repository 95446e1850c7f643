package repro.core

import scala.util.Random

import repro.SparkSpec
import repro.centroid.BruteForceCentroidIndex
import repro.cluster.{BalancedKMeans, PostingSplit, Split}
import repro.core.VectorMath.sqDist
import repro.storage.VectorRecord

/** Tests of LIRE's two necessary conditions (§3.3) including the paper's
  * Figure 4 geometry and a randomized *necessity* property: a vector the
  * conditions skip is provably never NPA-violating.
  */
class LireSpec extends SparkSpec {
  private val cfg = LireConfig()

  // Figure 4 geometry in 2-D: posting A at origin splits into A1/A2; B nearby.
  private val oldA = Array(0f, 0f)
  private val a1 = Array(-2f, 0f)
  private val a2 = Array(2f, 0f)
  private val b = Array(5f, 0f)

  test("Fig 4: the yellow dot (in split posting, closer to B than to A2) passes condition 1") {
    val yellow = Array(3.4f, 0f) // d(old)=3.4, d(A1)=5.4, d(A2)=1.4 -> cond1 false
    // yellow is closer to A2 than to old A, so condition 1 correctly skips it
    assert(!Lire.condition1(yellow, oldA, Seq(a1, a2)))
    // but a point equidistant-or-closer to old A than to both new centroids is flagged
    val mid = Array(0f, 3f)
    assert(Lire.condition1(mid, oldA, Seq(a1, a2)))
  }

  test("Fig 4: the green dot (in posting B, now closer to A2) passes condition 2") {
    val green = Array(3.2f, 0f)
    // d(green, A2) = 1.2 <= d(green, oldA) = 3.2 — must be checked
    assert(Lire.condition2(green, oldA, Seq(a1, a2)))
    // after checking, it is indeed closer to A2 than to its home B
    assert(sqDist(green, a2) < sqDist(green, b))
  }

  test("condition 1 is true when old centroid dominates both new ones") {
    val v = Array(0f, 10f)
    assert(Lire.condition1(v, oldA, Seq(a1, a2)))
  }

  test("condition 1 is false when a new centroid is strictly closer") {
    val v = Array(2.1f, 0f)
    assert(!Lire.condition1(v, oldA, Seq(a1, a2)))
  }

  test("condition 2 is false when both new centroids are farther than old") {
    val v = Array(-10f, 0f)
    // d(v,a1)=64, d(v,a2)=144, d(v,old)=100 — a1 IS closer, flip the example
    assert(Lire.condition2(v, oldA, Seq(a1, a2)))
    val u = Array(0f, -1f) // d(old)=1; d(a1)=d(a2)=5
    assert(!Lire.condition2(u, oldA, Seq(a1, a2)))
  }

  test("conditions are exhaustive on the split posting: skipping is safe") {
    // Necessity (§3.3): if condition 1 fails for v in the old posting, then
    // NO pre-split-NPA-compliant neighbor centroid can beat the new ones.
    val rnd = new Random(7)
    (1 to 200).foreach { _ =>
      val dim = 4
      val old0 = Array.fill(dim)(rnd.nextFloat() * 10)
      val n1 = Array.fill(dim)(rnd.nextFloat() * 10)
      val n2 = Array.fill(dim)(rnd.nextFloat() * 10)
      val v = Array.fill(dim)(rnd.nextFloat() * 10)
      if (!Lire.condition1(v, old0, Seq(n1, n2))) {
        // v was NPA-assigned to old posting: any neighbor B has d(v,B) >= d(v,old0).
        val dNewBest = math.min(sqDist(v, n1), sqDist(v, n2))
        // A neighbor satisfying the NPA precondition cannot beat the new best:
        val bFar = Array.fill(dim)(rnd.nextFloat() * 10)
        if (sqDist(v, bFar) >= sqDist(v, old0)) {
          assert(sqDist(v, bFar) >= dNewBest || sqDist(v, old0) > dNewBest,
            "skipped vector would have needed reassignment")
        }
      }
    }
  }

  test("conditions are exhaustive on neighbor postings: skipping is safe") {
    // Necessity: if condition 2 fails for v outside the old posting, both new
    // centroids are farther than old, which NPA already ruled out as v's home.
    val rnd = new Random(13)
    (1 to 200).foreach { _ =>
      val dim = 4
      val old0 = Array.fill(dim)(rnd.nextFloat() * 10)
      val n1 = Array.fill(dim)(rnd.nextFloat() * 10)
      val n2 = Array.fill(dim)(rnd.nextFloat() * 10)
      val v = Array.fill(dim)(rnd.nextFloat() * 10)
      val home = Array.fill(dim)(rnd.nextFloat() * 10)
      // NPA precondition for v living in `home` rather than old posting:
      if (sqDist(v, home) <= sqDist(v, old0) && !Lire.condition2(v, old0, Seq(n1, n2))) {
        assert(sqDist(v, home) < math.min(sqDist(v, n1), sqDist(v, n2)),
          "skipped neighbor vector would have preferred a new posting")
      }
    }
  }

  test("needsSplit fires strictly above the limit") {
    assert(!Lire.needsSplit(cfg.splitLimit, cfg))
    assert(Lire.needsSplit(cfg.splitLimit + 1, cfg))
  }

  test("needsMerge fires strictly below the threshold") {
    assert(!Lire.needsMerge(cfg.mergeThreshold, cfg))
    assert(Lire.needsMerge(cfg.mergeThreshold - 1, cfg))
  }

  test("reassignImproves requires a strict improvement") {
    val v = Array(0f)
    assert(Lire.reassignImproves(v, Array(5f), Array(1f)))
    assert(!Lire.reassignImproves(v, Array(1f), Array(1f)))
    assert(!Lire.reassignImproves(v, Array(1f), Array(5f)))
  }

  private def index(cs: (Long, Float)*): BruteForceCentroidIndex = {
    val idx = new BruteForceCentroidIndex
    cs.foreach { case (pid, x) => idx.insert(pid, Array(x)) }
    idx
  }

  /** One [[Reassign.pass]] over `cands` whose reader knows the replica
    * versions `held` by (vid, pid): the checked count, the moves, and the
    * would-be movers of each reader call.
    */
  private def pass(idx: BruteForceCentroidIndex, versions: VersionMap, cands: Seq[Reassign.Candidate],
                   held: Map[(Long, Long), Seq[Int]] = Map.empty) = {
    val asked = scala.collection.mutable.ArrayBuffer.empty[Seq[(Long, Long)]]
    val (checked, moves) = Reassign.pass(cands, idx, versions, cfg) { movers =>
      asked += movers
      vid => held.toSeq.collect { case ((`vid`, pid), vers) => vers.map(pid -> _) }.flatten
    }
    (checked, moves, asked.toSeq)
  }

  /** The pass's verdict for vector 1 at `v` homed in `fromPid`, at version
    * `ver` in the version map, whose replicas' versions by posting are
    * `held`: the posting it moves to, the nearest of its closure postings.
    */
  private def verdict(idx: BruteForceCentroidIndex, v: Float, fromPid: Long,
                      held: Map[Long, Seq[Int]] = Map.empty, ver: Int = 0): Option[Long] = {
    val versions = new VersionMap
    versions.register(1L)
    (0 until ver).foreach(i => versions.tryBumpVersion(1L, i))
    val cand = Reassign.Candidate(1L, Array(v), fromPid, ver)
    pass(idx, versions, Seq(cand), held.map { case (pid, vers) => (1L, pid) -> vers })._2.headOption.map(_.targets.head)
  }

  test("reassign verdict: a strictly closer posting takes the vector") {
    val idx = index(0L -> 5f, 1L -> 1f)
    assert(verdict(idx, 0f, fromPid = 0) == Some(1L))
    assert(verdict(idx, 0f, fromPid = 1).isEmpty) // already home
  }

  test("reassign verdict: an equally close posting leaves the vector home") {
    // nearest breaks the tie toward pid 0; pid 0 is no closer than home 1.
    val idx = index(0L -> -1f, 1L -> 1f)
    assert(idx.nearest(Array(0f), 1).head._1 == 0L)
    assert(verdict(idx, 0f, fromPid = 1).isEmpty)
  }

  test("reassign verdict: a home without a centroid loses to any other posting") {
    // A split or merge removed pid 7: the far posting 1 still takes the vector.
    assert(verdict(index(1L -> 100f), 0f, fromPid = 7) == Some(1L))
  }

  test("reassign verdict: an empty index moves nothing") {
    assert(verdict(index(), 0f, fromPid = 0).isEmpty)
  }

  test("reassign verdict: a nearest posting holding a live replica leaves the vector home") {
    val idx = index(0L -> 5f, 1L -> 1f)
    assert(verdict(idx, 0f, fromPid = 0, held = Map(0L -> Seq(2), 1L -> Seq(2)), ver = 2).isEmpty)
    // One live replica among stale ones is enough.
    assert(verdict(idx, 0f, fromPid = 0, held = Map(1L -> Seq(0, 1, 2)), ver = 2).isEmpty)
  }

  test("reassign verdict: a nearest posting holding only stale-version replicas takes the vector") {
    val idx = index(0L -> 5f, 1L -> 1f)
    assert(verdict(idx, 0f, fromPid = 0, held = Map(0L -> Seq(2), 1L -> Seq(0, 1)), ver = 2) == Some(1L))
  }

  test("reassign verdict: a nearest posting holding no replica takes the vector") {
    val idx = index(0L -> 5f, 1L -> 1f, 2L -> 9f)
    // Live replicas elsewhere (home 0, posting 2) do not count.
    assert(verdict(idx, 0f, fromPid = 0, held = Map(0L -> Seq(0), 2L -> Seq(0))) == Some(1L))
  }

  test("reassign verdict: a tombstoned vector aborts before its verdict") {
    // Step 2 aborts it: no nearest call, and no read of its replicas.
    val idx = index(0L -> 5f, 1L -> 1f)
    val versions = new VersionMap
    versions.register(1L)
    versions.markDeleted(1L)
    val comps = idx.distanceComputations
    val (checked, moves, asked) =
      pass(idx, versions, Seq(Reassign.Candidate(1L, Array(0f), 0L, 0)), Map((1L, 1L) -> Seq(0)))
    assert(checked == 1 && moves.isEmpty && asked == Seq(Seq.empty))
    assert(idx.distanceComputations == comps)
  }

  test("reassign verdict: a vector whose version moved on since it was read aborts") {
    val idx = index(0L -> 5f, 1L -> 1f)
    val versions = new VersionMap
    versions.register(1L)
    versions.tryBumpVersion(1L, 0)
    val (checked, moves, asked) = pass(idx, versions, Seq(Reassign.Candidate(1L, Array(0f), 0L, 0)))
    assert(checked == 1 && moves.isEmpty && asked == Seq(Seq.empty))
  }

  test("reassign verdict: the reader is called once, with exactly the would-be movers") {
    val idx = index(0L -> 5f, 1L -> 1f)
    val versions = new VersionMap
    (1L to 4L).foreach(versions.register)
    val cands = Seq(
      Reassign.Candidate(1L, Array(0f), 1L, 0),   // home is nearest
      Reassign.Candidate(2L, Array(4.9f), 0L, 0), // home is nearest
      Reassign.Candidate(3L, Array(0f), 0L, 0),   // posting 1 is closer
      Reassign.Candidate(4L, Array(0.5f), 0L, 0)) // posting 1 is closer
    val (checked, moves, asked) = pass(idx, versions, cands, held = Map((4L, 1L) -> Seq(0)))
    assert(asked == Seq(Seq(3L -> 1L, 4L -> 1L)))
    assert(checked == 4 && moves.map(_.c.vid) == Seq(3L)) // 4 already has a live replica in 1
  }

  test("reassign pass: a vid is checked once, from its first candidate") {
    val idx = index(0L -> 5f, 1L -> 1f)
    val versions = new VersionMap
    versions.register(1L)
    // From posting 1, its nearest, vector 1 stays; from posting 0 it would move.
    val cands = Seq(Reassign.Candidate(1L, Array(0f), 1L, 0), Reassign.Candidate(1L, Array(0f), 0L, 0))
    val (checked, moves, asked) = pass(idx, versions, cands)
    assert(checked == 1 && moves.isEmpty && asked == Seq(Seq.empty))
    assert(pass(idx, versions, cands.reverse)._2.map(_.c.home) == Seq(0L))
  }

  test("reassign pass: a move bumps the version, goes to the closure set and stales the old rows") {
    // Posting 2 is within the closure slack of posting 1 for a vector at 0.
    val idx = index(0L -> 5f, 1L -> 1f, 2L -> -1.05f)
    val versions = new VersionMap
    versions.register(1L)
    val held = Map((1L, 0L) -> Seq(0), (1L, 1L) -> Seq(), (1L, 3L) -> Seq(0))
    val (_, moves, _) = pass(idx, versions, Seq(Reassign.Candidate(1L, Array(0f), 0L, 0)), held)
    val Seq(m) = moves
    assert(m.version == 1 && versions.currentVersion(1L) == 1)
    assert(m.targets == Lire.closure(idx.nearest(Array(0f), cfg.maxReplicas), cfg.replicaEpsilon))
    assert(m.targets == Seq(1L, 2L))
  }

  // Figure 4 geometry: A (old) splits into A1 (left) and A2 (right).
  test("split candidate: a vector left on the far half is checked though Eq. 1 skips it") {
    val v = Array(1.5f, 0f) // nearer A2 than A, so Eq. 1 skips it
    assert(!Lire.condition1(v, oldA, Seq(a1, a2)))
    assert(Lire.splitCandidate(v, oldA, ownC = a1, otherC = a2))
  }

  test("split candidate: a vector on its near half that Eq. 1 skips is not checked") {
    val v = Array(1.5f, 0f)
    assert(!Lire.splitCandidate(v, oldA, ownC = a2, otherC = a1))
    // Eq. 1 still flags a vector both new centroids moved away from.
    assert(Lire.splitCandidate(Array(0f, 3f), oldA, ownC = a2, otherC = a1))
  }

  // A posting of 40 (id, vector) rows from two overlapping 2-D blobs, and
  // an old centroid off their mean, so that some rows are candidates.
  private val splitCfg = LireConfig(splitLimit = 32, mergeThreshold = 4)
  private val posting: IndexedSeq[(Long, Array[Float])] = {
    val rnd = new Random(11)
    (0 until 40).map { i =>
      val cx = if (i % 2 == 0) -1.0 else 1.0
      (i.toLong, Array((cx + rnd.nextGaussian()).toFloat, rnd.nextGaussian().toFloat))
    }
  }
  private val postingC = Array(0.3f, 0.2f)
  private def splitEvent(rows: IndexedSeq[(Long, Array[Float])], seed: => Long) =
    PostingSplit.split(rows, (_: (Long, Array[Float]))._2, postingC, splitCfg, seed)

  test("split event: the halves partition the live rows as BalancedKMeans.bisect does") {
    val split = splitEvent(posting, 5L).get
    val (side0, side1) = BalancedKMeans.bisect(posting.map(_._2), seed = 5L)
    assert(split.half0 == side0.map(posting))
    assert(split.half1 == side1.map(posting))
    assert((split.half0 ++ split.half1).map(_._1).sorted == posting.map(_._1))
  }

  test("split event: each centroid is its half's mean") {
    val split = splitEvent(posting, 5L).get
    assert(split.c0.sameElements(VectorMath.mean(split.half0.map(_._2))))
    assert(split.c1.sameElements(VectorMath.mean(split.half1.map(_._2))))
  }

  test("split event: the candidates are exactly the rows Lire.splitCandidate flags") {
    val split = splitEvent(posting, 5L).get
    assert(split.cand0 == split.half0.filter(r => Lire.splitCandidate(r._2, postingC, split.c0, split.c1)))
    assert(split.cand1 == split.half1.filter(r => Lire.splitCandidate(r._2, postingC, split.c1, split.c0)))
    val flagged = split.cand0.length + split.cand1.length
    assert(flagged > 0 && flagged < posting.length, s"$flagged of ${posting.length} flagged")
  }

  test("split event: none at or under the split limit, and the seed is not drawn") {
    var drawn = 0
    def seed: Long = { drawn += 1; 5L }
    assert(splitEvent(posting.take(splitCfg.splitLimit), seed).isEmpty)
    assert(splitEvent(posting.take(3), seed).isEmpty)
    assert(drawn == 0)
    assert(splitEvent(posting.take(splitCfg.splitLimit + 1), seed).isDefined)
    assert(drawn == 1)
  }

  test("split event: after GC's dedupe it does not depend on the order the rows were read in") {
    // The posting with a second replica of every third vector, at the same
    // version, as a merge or a reassign can leave in a posting.
    val rows = posting.map { case (vid, v) => VectorRecord(vid, 0, v) } ++
      posting.filter(_._1 % 3 == 0).map { case (vid, v) => VectorRecord(vid, 0, v.clone()) }
    assert(PostingSplit.onePerVid(rows).map(_.vid).sorted == posting.map(_._1))
    def bits(v: Array[Float]) = v.map(java.lang.Float.floatToRawIntBits).toSeq
    def splitOf(read: Seq[VectorRecord]) = {
      val s: Split[VectorRecord] =
        PostingSplit.split(PostingSplit.onePerVid(read), (_: VectorRecord).vec, postingC, splitCfg, 5L).get
      (Seq(s.half0, s.half1, s.cand0, s.cand1).map(_.map(_.vid)), bits(s.c0), bits(s.c1))
    }
    val expected = splitOf(rows)
    assert(expected._1.drop(2).flatten.nonEmpty, "no candidates to compare")
    (rows.reverse +: (1 to 8).map(seed => new Random(seed).shuffle(rows))).foreach { read =>
      assert(splitOf(read) == expected)
    }
  }

  /** Six 2-D postings on the y axis, with a reassign range of 2. Postings
    * 0 (y = 0) and 1 (y = 1.5) each hold 9 live rows in two blobs at
    * x = ±1 and split; posting 2 (y = 0.7) reads 9 rows, two of them the
    * same vector, so GC alone fits it. Postings 3 (y = -2), 4 (y = 3.2)
    * and 5 (y = 10) are not in the batch. Posting 1 is nearer posting 0
    * than posting 3 is, and posting 0 nearer posting 1 than posting 4 is,
    * so a range that kept a split posting would show; posting 2 is in
    * both ranges.
    */
  test("split batch: each range skips the postings that split, keeps a GC-only one, and equals Reassign.range") {
    val batchCfg = LireConfig(splitLimit = 8, mergeThreshold = 1, reassignRange = 2)
    val ys = IndexedSeq(0f, 1.5f, 0.7f, -2f, 3.2f, 10f)
    val idx = new BruteForceCentroidIndex
    ys.indices.foreach(p => idx.insert(p.toLong, Array(0f, ys(p))))
    def row(pid: Int, i: Int, x: Float, dy: Float) = VectorRecord(100L * pid + i, 0, Array(x, ys(pid) + dy))
    def blobs(pid: Int) = (0 until 9).map(i => row(pid, i, if (i < 5) -1f else 1f, i * 0.01f))
    def spread(pid: Int) = (0 until 8).map(i => row(pid, i, -1f + 2f * i / 7, 0f))
    val stored: Map[Long, Seq[VectorRecord]] = Map(0L -> blobs(0), 1L -> blobs(1), 2L -> (spread(2) :+ spread(2).head),
      3L -> spread(3), 4L -> spread(4), 5L -> spread(5))
    val reads = scala.collection.mutable.ArrayBuffer.empty[Set[Long]]
    val rowsRead = scala.collection.mutable.ArrayBuffer.empty[Long]
    var nextPid = 6L
    def freshPid() = { nextPid += 1; nextPid - 1 }
    val batch = Rebuilder.splitBatch(Seq(2L, 1L, 0L), idx, batchCfg, () => freshPid(), identity) { pids =>
      reads += pids
      pid => { rowsRead += pid; stored(pid) }
    }

    // Fresh pids in ascending old-pid order; GC's dedupe fits posting 2.
    assert(batch.splits.map(d => (d.pid, d.p0, d.p1)) == Seq((0L, 6L, 7L), (1L, 8L, 9L)))
    assert(batch.gcOnly.map { case (pid, live) => pid -> live.map(_.vid).sorted } == Seq(2L -> spread(2).map(_.vid)))
    assert(idx.all.map(_._1).toSet == Set(2L, 3L, 4L, 5L, 6L, 7L, 8L, 9L))
    batch.splits.foreach { d =>
      assert(idx.get(d.p0).get.sameElements(d.split.c0) && idx.get(d.p1).get.sameElements(d.split.c1))
    }
    // One read, and each posting's rows asked for once.
    assert(reads.size == 1 && rowsRead.distinct == rowsRead)

    // Each split's range over a brute-force nearest list of the old centroids.
    val split = Set(0L, 1L)
    def range(old: Int) = Reassign.range(ys.indices.filterNot(_ == old).map(_.toLong)
      .sortBy(p => (sqDist(Array(0f, ys(old)), Array(0f, ys(p.toInt))), p)), split, batchCfg)
    assert(range(0) == Seq(2L, 3L) && range(1) == Seq(2L, 4L))
    assert(Seq(0, 1).flatMap(range).toSet.subsetOf(reads.head))
    val newC = batch.splits.map(d => d.pid -> Seq(d.split.c0, d.split.c1)).toMap
    val eq2 = Seq(0, 1).flatMap { old =>
      range(old).flatMap(nb => stored(nb).distinctBy(_.vid)
        .filter(r => Lire.condition2(r.vec, Array(0f, ys(old)), newC(old.toLong))).map(r => (r.vid, nb)))
    }.toSet
    val (fromHalves, fromRanges) = batch.candidates.partition(_.home >= 6)
    assert(fromRanges.map(c => (c.vid, c.home)).toSet == eq2 && fromRanges.size == eq2.size)
    assert(Seq(2L, 3L, 4L).forall(nb => eq2.exists(_._2 == nb)), s"a range posting with no Eq. 2 candidate: $eq2")
    // Eq. 1 and the far-half rule, homed in the new halves.
    assert(fromHalves.map(c => (c.vid, c.home)) == batch.splits.flatMap { d =>
      d.split.cand0.map(_.vid -> d.p0) ++ d.split.cand1.map(_.vid -> d.p1)
    })
  }

  /** Postings on the x axis, merge threshold 4. Posting 0 (x = 0) holds
    * two vectors, one of them twice, and its nearest posting, 1 (x = 1),
    * holds one; posting 2 (x = 5) reads five rows of four vectors; posting
    * 3 (x = 20) holds one vector and is nearest posting 4 (x = 22), which
    * holds six and is not in the batch. Posting 9 has no centroid.
    */
  test("merge batch: no chains, GC-only postings keep their centroids, and candidates are homed in the targets") {
    val mergeCfg = LireConfig(splitLimit = 8, mergeThreshold = 4)
    val xs = Map(0L -> 0f, 1L -> 1f, 2L -> 5f, 3L -> 20f, 4L -> 22f)
    val idx = new BruteForceCentroidIndex
    xs.foreach { case (pid, x) => idx.insert(pid, Array(x, 0f)) }
    def rows(pid: Long, vids: Long*) = vids.map(vid => VectorRecord(vid, 0, Array(xs(pid), 0.01f * vid)))
    val stored: Map[Long, Seq[VectorRecord]] = Map(0L -> rows(0, 1, 2, 2), 1L -> rows(1, 11),
      2L -> rows(2, 21, 22, 23, 24, 24), 3L -> rows(3, 31), 4L -> rows(4, 41L to 46L: _*))
    val reads = scala.collection.mutable.ArrayBuffer.empty[Set[Long]]
    val batch = Rebuilder.mergeBatch(Seq(9L, 3L, 2L, 1L, 0L), idx, mergeCfg) { pids => reads += pids; stored }

    // One read, of the batch postings that have a centroid.
    assert(reads.toSeq == Seq(Set(0L, 1L, 2L, 3L)))
    // Posting 1 is posting 0's target, so it does not merge in turn.
    assert(batch.merges.map(m => (m.pid, m.target)) == Seq((0L, 1L), (3L, 4L)))
    assert(batch.merges.map(_.rows.map(_.vid).sorted) == Seq(Seq(1L, 2L), Seq(31L)))
    // Deduped to the threshold, posting 2 only needed its GC.
    assert(batch.gcOnly.map { case (pid, live) => pid -> live.map(_.vid).sorted } == Seq(2L -> Seq(21L, 22L, 23L, 24L)))
    assert(idx.all.map(_._1).toSet == Set(1L, 2L, 4L))
    assert(batch.candidates.map(c => (c.vid, c.home)) ==
      batch.merges.flatMap(m => m.rows.map(_.vid -> m.target)))
    assert(batch.candidates.map(_.vec) == batch.merges.flatMap(_.rows.map(_.vec)))
  }

  test("merge batch: of two undersized postings one merges, and a last centroid stays") {
    val mergeCfg = LireConfig(splitLimit = 8, mergeThreshold = 4)
    val idx = new BruteForceCentroidIndex
    idx.insert(0L, Array(0f))
    idx.insert(1L, Array(1f))
    val stored = Map(0L -> Seq(VectorRecord(1L, 0, Array(0f))), 1L -> Seq(VectorRecord(2L, 0, Array(1f))))
    val batch = Rebuilder.mergeBatch(Seq(0L, 1L), idx, mergeCfg)(_ => stored)
    assert(batch.merges.map(m => (m.pid, m.target)) == Seq((0L, 1L)) && batch.gcOnly.isEmpty)
    assert(idx.all.map(_._1).toSeq == Seq(1L))
    // With one centroid left nothing is read or merged.
    val last = Rebuilder.mergeBatch(Seq(1L), idx, mergeCfg)(_ => fail("a batch with one centroid read a posting"))
    assert(last.merges.isEmpty && last.gcOnly.isEmpty && idx.size == 1)
  }

  test("LireConfig rejects nonsensical parameters") {
    intercept[IllegalArgumentException](LireConfig(splitLimit = 1))
    intercept[IllegalArgumentException](LireConfig(mergeThreshold = 200, splitLimit = 100))
    intercept[IllegalArgumentException](LireConfig(reassignRange = -1))
    intercept[IllegalArgumentException](LireConfig(maxReplicas = 0))
  }
}
