package repro.core.distributed

import org.apache.spark.sql.functions._

import repro.cluster.PostingSplit
import repro.core.{Lire, Reassign, VectorMath}

/** Totals of one [[DistRebalancer.run]] — the distributed analogue of
  * [[repro.core.engine.EngineStats]].
  */
final case class RebalanceStats(
    rounds: Int = 0,
    splits: Long = 0,
    gcOnlySplits: Long = 0,
    merges: Long = 0,
    reassignChecked: Long = 0,
    reassignMoved: Long = 0,
) {
  def +(o: RebalanceStats): RebalanceStats = RebalanceStats(rounds + o.rounds, splits + o.splits,
    gcOnlySplits + o.gcOnlySplits, merges + o.merges, reassignChecked + o.reassignChecked,
    reassignMoved + o.reassignMoved)
}

/** The Local Rebuilder (§4.2) over the Parquet posting lake: Spark jobs
  * read the lake, and the driver decides and commits.
  *
  * One `run` executes split → reassign → merge rounds until the index is
  * balanced again. Which postings to split or merge it reads from the
  * lake's posting table, as the paper's rebuilder reads the block mapping's
  * length field (§4.3): no scan of the lake. A split round with oversized
  * postings runs two one-job actions, and then commits:
  *
  *  1. the split read: one filtered scan, with no shuffle, of the oversized
  *     postings and their reassign ranges, whose live rows the driver
  *     collects. The driver runs each oversized posting through the
  *     engine's split event ([[PostingSplit.onePerVid]] for GC, then
  *     [[PostingSplit.split]]: balanced 2-means bisection, the two
  *     centroids and its Eq. 1 candidates), as the paper's Local Rebuilder
  *     reads, garbage-collects and bisects a posting in one process
  *     (§4.2.1). It allocates the fresh pids in ascending old-pid order and
  *     checks the range postings' live rows against Eq. 2 once it knows the
  *     new centroids;
  *  2. the membership read of the reassign pass ([[Reassign.pass]]),
  *     which also settles the posting table's live counts
  *     ([[DistIndex.vidRows]]); none runs when no candidate would move and
  *     no row went stale;
  *  3. the commit of the driver-held rows, as an insert or a merge
  *     commits: the driver writes only the round's new rows, the halves
  *     under their fresh pids and the moves' fresh-version rows, as one
  *     Parquet file, with no Spark job, as the paper's rebuilder writes
  *     back a split's halves as a few blocks (§4.2.1). Stale replicas
  *     await the next GC.
  *
  * The driver so holds each split posting's live rows (a little over
  * `splitLimit` when the rebalancer keeps up), besides the live rows of
  * its reassign range: `reassignRange` postings of up to `splitLimit` rows
  * each. A rebalance runs no shuffle.
  *
  * A merge round settles the live counts first if no split round did.
  * Convergence of the loop is the paper's §3.4 theorem — each round
  * strictly increases the centroid count, bounded by the number of live
  * vectors.
  */
final class DistRebalancer(idx: DistIndex) {
  import idx.spark
  import spark.implicits._
  private val cfg = idx.cfg

  /** Rebalance to a stable state (or `maxRounds`). */
  def run(maxRounds: Int = 50): RebalanceStats = {
    var stats = RebalanceStats()
    var progress = true
    while (progress && stats.rounds < maxRounds) {
      val split = splitRound()
      val merge = mergeRound()
      stats = stats + split + merge + RebalanceStats(rounds = 1)
      progress = (split.splits + split.gcOnlySplits + merge.merges) > 0
    }
    stats
  }

  /** One split round over every posting whose raw size is over the limit:
    * one action reads the live rows of those postings and of each split's
    * reassign range, and the driver splits each oversized posting
    * ([[PostingSplit.split]]), checks the range's rows against Eq. 2 and
    * commits the rows it holds. Two one-job actions in all, this read and
    * the reassign pass's membership read; the commit runs no Spark job.
    */
  private def splitRound(): RebalanceStats = {
    val oversized = idx.table.collect { case (pid, m) if Lire.needsSplit(m.raw.toInt, cfg) => pid }.toSeq.sorted
    if (oversized.isEmpty) return RebalanceStats()

    val over = oversized.toSet
    val oldCs = oversized.map(pid => pid -> idx.centroids.get(pid).get).toMap

    // The reassign range of a split ([[Reassign.range]]) is the old
    // centroid's `reassignRange` nearest postings among those not split this
    // round (their vectors go through Eq. 1). Only oversized postings can split,
    // so the nearest postings up to the range-th one that is not oversized
    // hold the range whatever the split events decide.
    val reach: Map[Long, Seq[Long]] =
      if (cfg.reassignRange == 0) Map.empty
      else oldCs.map { case (pid, oldC) =>
        val near = idx.centroids.nearest(oldC, cfg.reassignRange + oversized.size).map(_._1)
        val cut = near.indices.filterNot(i => over(near(i))).lift(cfg.reassignRange - 1).fold(near.length)(_ + 1)
        pid -> near.take(cut)
      }
    val inRange = reach.values.flatten.toSet

    // One filtered read brings the live rows of the oversized postings and
    // of their reassign ranges to the driver, one row per vid and posting
    // (GC, §4.2.1). A posting with no live row reads nothing: an oversized
    // one is then left to the merge round.
    val liveRows: Map[Long, Vector[PostingRow]] =
      idx.labelled("lake split")(idx.postingsIn("pid", over ++ inRange)
        .filter(idx.liveUdf(col("vid"), col("version")))
        .as[PostingRow].collect()).toSeq
        .groupBy(_.pid).view.mapValues(PostingSplit.onePerVid(_)).toMap
    val withLive = oversized.filter(liveRows.contains)
    // The split event per oversized posting, seeded by its pid; `None`
    // when GC alone fixed it, which keeps its pid and centroid.
    val splits = withLive.flatMap { pid =>
      PostingSplit.split(liveRows(pid), (_: PostingRow).vec, oldCs(pid), cfg, pid).map(pid -> _)
    }
    val splitOf = splits.toMap
    val gcOnly = withLive.filterNot(splitOf.contains)

    // Allocate fresh pids in ascending old-pid order; update the driver
    // centroid index (§4.1: "update the memory SPTAG index with the new
    // posting centroids").
    val newPids: Map[Long, (Long, Long)] =
      splits.map { case (pid, _) => pid -> ((idx.freshPid(), idx.freshPid())) }.toMap
    splits.foreach { case (pid, _) => idx.centroids.remove(pid) }
    splits.foreach { case (pid, sp) =>
      val (p0, p1) = newPids(pid)
      idx.centroids.insert(p0, sp.c0)
      idx.centroids.insert(p1, sp.c1)
    }

    // The commit writes the halves under their new posting ids (GC-only
    // rows keep theirs).
    val relabeled = withLive.flatMap { pid =>
      splitOf.get(pid).fold[Seq[PostingRow]](liveRows(pid)) { sp =>
        val (p0, p1) = newPids(pid)
        sp.half0.map(_.copy(pid = p0)) ++ sp.half1.map(_.copy(pid = p1))
      }
    }

    // ---- reassign candidates -------------------------------------------
    // Condition 1 (Eq. 1) and the far-half rule: the split event's
    // candidates, homed in the new postings.
    val cand1 = splits.flatMap { case (pid, sp) =>
      val (p0, p1) = newPids(pid)
      sp.cand0.map(_.copy(pid = p0)) ++ sp.cand1.map(_.copy(pid = p1))
    }

    // Condition 2 (Eq. 2): the live rows of each split's reassign range
    // that one of its new centroids is at least as close to as its old one.
    val splitPids = newPids.keySet
    val ranges = splits.flatMap { case (pid, sp) =>
      Reassign.range(reach.getOrElse(pid, Nil), splitPids, cfg).map(_ -> (oldCs(pid) -> Seq(sp.c0, sp.c1)))
    }.groupMap(_._1)(_._2)
    val cand2 = ranges.toSeq.flatMap { case (nbr, sps) => Reassign.rangeCandidates(liveRows.getOrElse(nbr, Nil), sps) }

    val (reassigned, moves, staled) = applyReassigns(cand1 ++ cand2, over, relabeled)
    idx.commit(relabeled ++ moves, TableEdit(staled = staled, dropped = splitPids, rewritten = gcOnly.toSet))
    RebalanceStats(splits = splits.length, gcOnlySplits = gcOnly.length) + reassigned
  }

  /** One merge round over every posting whose live size is under the
    * threshold (§3.2 Merge). The live sizes are settled first, which takes
    * an action only when no split round's membership read settled them.
    */
  private def mergeRound(): RebalanceStats = {
    idx.settle()
    // A posting can be all-stale (size 0 after reassigns): still merge it away.
    val undersized = idx.centroids.all.map(_._1)
      .filter(p => Lire.needsMerge(idx.table.get(p).fold(0L)(_.live).toInt, cfg)).toSeq.sorted
    if (undersized.isEmpty || idx.centroids.size < 2) return RebalanceStats()

    // Plan merges on the driver: each undersized posting leaves the centroid
    // index and folds into its nearest remaining posting; postings already
    // used as a target this round are skipped (no chains within a round).
    val targets = scala.collection.mutable.Set.empty[Long]
    val plan = scala.collection.mutable.Map.empty[Long, Long]
    undersized.foreach { pid =>
      if (!targets(pid) && idx.centroids.size > 1) {
        val c = idx.centroids.get(pid).get
        idx.centroids.remove(pid)
        val target = idx.centroids.nearest(c, 1).head._1
        plan.update(pid, target)
        targets += target
      }
    }
    if (plan.isEmpty) return RebalanceStats()

    // The deleted posting's live rows are appended to the target (§3.2);
    // its stale rows are hidden with it.
    val movedIn = idx.labelled("lake merge")(idx.postingsIn("pid", plan.keys)
      .filter(idx.liveUdf(col("vid"), col("version")))
      .as[PostingRow].collect()).toSeq
      .map(r => r.copy(pid = plan(r.pid)))

    // §3.3: vectors from the deleted posting all need a reassign check.
    val (reassigned, moves, staled) = applyReassigns(movedIn, plan.keySet.toSet, movedIn)
    idx.commit(movedIn ++ moves, TableEdit(staled = staled, dropped = plan.keySet.toSet))
    RebalanceStats(merges = plan.size) + reassigned
  }

  /** The round's reassign pass ([[Reassign.pass]]) on the driver. A vid
    * that is a candidate from several postings (replicas) is checked from
    * the one whose centroid is nearest it, ties to the lower pid. The membership
    * read is one action over every lake row of the would-be movers, which
    * also settles the posting table ([[DistIndex.vidRows]]), plus the rows
    * the commit writes; it also gives the live rows a move leaves stale.
    *
    * @param candidates rows homed in the posting they are checked from
    * @param hidden     postings whose lake rows the commit hides
    * @param written    the rows the commit writes besides the moves, each live
    * @return the checked and moved counts, the moves' rows, and the posting
    *         of every visible row a move left stale
    */
  private def applyReassigns(candidates: Seq[PostingRow], hidden: Set[Long],
                             written: Seq[PostingRow]): (RebalanceStats, Seq[PostingRow], Seq[Long]) = {
    import Ordering.Double.TotalOrdering
    def homeD(c: PostingRow) = idx.centroids.get(c.pid).fold(Double.MaxValue)(VectorMath.sqDist(c.vec, _))
    val cands = candidates.sortBy(c => (homeD(c), c.pid)).map(c => Reassign.Candidate(c.vid, c.vec, c.pid, c.version))
    val (checked, moves) = Reassign.pass(cands, idx.centroids, idx.versions, cfg) { movers =>
      val vids = movers.map(_._1).toSet
      // The commit's own rows are live, so at the vid's version now.
      val lake = idx.vidRows(vids, "lake reassign")
        .collect { case (vid, pid, version) if !hidden(pid) => vid -> ((pid, version)) }
      val fresh = written.collect { case r if vids(r.vid) => r.vid -> ((r.pid, idx.versions.currentVersion(r.vid))) }
      (lake ++ fresh).groupMap(_._1)(_._2).withDefaultValue(Nil)
    }
    (RebalanceStats(reassignChecked = checked, reassignMoved = moves.size),
      moves.flatMap(m => m.targets.map(PostingRow(m.c.vid, _, m.version, m.c.vec))), moves.flatMap(_.staled))
  }
}
