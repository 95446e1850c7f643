package repro.core.distributed

import repro.core.{Lire, Reassign, Rebuilder}

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
  * read the lake, and the driver decides and commits. Every read is a
  * plain RDD job of the lake's one reader ([[DistIndex.visibleRows]]), over
  * the scan built once per commit from the manifest's files, with no SQL
  * query and no query plan.
  *
  * One `run` executes split → reassign → merge rounds until the index is
  * balanced again. Which postings to split or merge it reads from the
  * lake's posting table, as the paper's rebuilder reads the block mapping's
  * length field (§4.3): no scan of the lake. A split round with oversized
  * postings reads the lake once, in one Spark job, and then commits:
  *
  *  1. the split read of the engine's own split batch
  *     ([[Rebuilder.splitBatch]]): one filtered scan, with no shuffle, of
  *     the oversized postings and their reassign ranges, whose live rows
  *     the driver collects. The batch garbage-collects and bisects each
  *     oversized posting, allocates the fresh pids in ascending old-pid
  *     order, updates the centroid index and makes the Eq. 1 and Eq. 2
  *     candidates, as the engine's split job does for one posting;
  *  2. the reassign pass ([[Reassign.pass]]), whose membership reader
  *     answers from the driver's replica map ([[DistIndex.links]]) and the
  *     round's own rows, with no Spark job;
  *  3. the commit of the driver-held rows, as an insert commits: the
  *     driver writes only the round's new rows, the halves under their
  *     fresh pids, the GC'd postings' live rows and the moves'
  *     fresh-version rows, as one
  *     Parquet file, with no Spark job, as the paper's rebuilder writes
  *     back a split's halves as a few blocks (§4.2.1). Stale replicas
  *     await the next GC.
  *
  * The driver so holds each split posting's live rows (a little over
  * `splitLimit` when the rebalancer keeps up), besides the live rows of
  * its reassign range: `reassignRange` postings of up to `splitLimit` rows
  * each. A rebalance runs no shuffle.
  *
  * A merge round runs the engine's own merge batch ([[Rebuilder.mergeBatch]])
  * over every posting whose live count in the posting table, which deletes
  * and re-inserts keep exact, is under the threshold. Its read is the
  * split round's reader over those postings, and its commit the split
  * round's path: the reassign pass over the merged rows, then one commit of
  * those rows under their targets and of the GC'd postings' live rows.
  *
  * Convergence of the loop is the paper's §3.4 theorem — each round
  * strictly increases the centroid count, bounded by the number of live
  * vectors.
  */
final class DistRebalancer(idx: DistIndex) {
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
    * the shared split batch ([[Rebuilder.splitBatch]]), seeded by the old
    * pids, whose one read is one action over the live rows of those
    * postings and of their reaches. The driver then commits the halves
    * under their fresh pids and each GC'd posting's live rows under its
    * own ([[commitRound]]). This read is the round's one Spark job; the
    * reassign pass and the commit run none.
    */
  private def splitRound(): RebalanceStats = {
    val oversized = idx.table.collect { case (pid, m) if Lire.needsSplit(m.raw.toInt, cfg) => pid }.toSeq
    if (oversized.isEmpty) return RebalanceStats()
    val batch = Rebuilder.splitBatch(oversized, idx.centroids, cfg, () => idx.freshPid(), identity)(liveRows("lake split"))
    val halves = batch.splits.flatMap(d => d.split.half0.map(_.copy(pid = d.p0)) ++ d.split.half1.map(_.copy(pid = d.p1)))
    commitRound(batch.candidates, halves ++ batch.gcOnly.flatMap(_._2),
      dropped = batch.splits.map(_.pid).toSet, rewritten = batch.gcOnly.map(_._1).toSet) +
      RebalanceStats(splits = batch.splits.length, gcOnlySplits = batch.gcOnly.length)
  }

  /** One merge round over every posting whose live size is under the
    * threshold: the shared merge batch ([[Rebuilder.mergeBatch]]), whose
    * one read is one action over the live rows of those postings. The
    * driver then commits the merged rows under their targets and each GC'd
    * posting's live rows under its own ([[commitRound]]).
    */
  private def mergeRound(): RebalanceStats = {
    // A posting can be all-stale (size 0 after reassigns): still merge it away.
    val undersized = idx.centroids.all.map(_._1)
      .filter(p => Lire.needsMerge(idx.table.get(p).fold(0L)(_.live).toInt, cfg)).toSeq
    val batch = Rebuilder.mergeBatch(undersized, idx.centroids, cfg)(liveRows("lake merge"))
    val moved = batch.merges.flatMap(m => m.rows.map(_.copy(pid = m.target)))
    commitRound(batch.candidates, moved ++ batch.gcOnly.flatMap(_._2),
      dropped = batch.merges.map(_.pid).toSet, rewritten = batch.gcOnly.map(_._1).toSet) +
      RebalanceStats(merges = batch.merges.length)
  }

  /** A round's read: one action, labelled `label`, of the lake's reader
    * ([[DistIndex.visibleRows]]) over the live rows of `pids`, which the
    * driver collects and groups by posting.
    */
  private def liveRows(label: String)(pids: Set[Long]): Long => Seq[PostingRow] = {
    val isLive = idx.isLive
    val live = idx.labelled(label)(idx.visibleRows((vid, pid, version) => pids(pid) && isLive(vid, version))
      .collect()).toSeq.groupBy(_.pid)
    live.getOrElse(_, Nil)
  }

  /** A round's commit: the round's reassign pass over `candidates`
    * ([[applyReassigns]]), then one commit of the `written` rows and the
    * moves, which drops the `dropped` postings and restarts the
    * `rewritten` ones. The `written` rows are the live rows of those
    * postings, so the commit unlinks their replicas there. A round that
    * drops and rewrites nothing commits nothing.
    */
  private def commitRound(candidates: Seq[Reassign.Candidate], written: Seq[PostingRow],
                          dropped: Set[Long], rewritten: Set[Long]): RebalanceStats = {
    if (dropped.isEmpty && rewritten.isEmpty) return RebalanceStats()
    val (reassigned, moves) = applyReassigns(candidates, dropped ++ rewritten, written)
    idx.commit(written ++ moves, TableEdit(dropped = dropped, rewritten = rewritten))
    reassigned
  }

  /** The round's reassign pass ([[Reassign.pass]]) on the driver, over
    * the candidates in the order the round made them. Its membership
    * reader answers from memory: a would-be mover's replica links
    * ([[DistIndex.links]]) outside the postings the commit hides, plus its
    * rows the commit writes, all live and so at the vid's version now. Each
    * mover's old links come off the replica map before the commit links
    * its targets.
    *
    * @param candidates each homed in the posting it is checked from
    * @param hidden     postings whose lake rows the commit hides
    * @param written    the rows the commit writes besides the moves, each
    *                   live when read
    * @return the checked and moved counts, and the moves' rows
    */
  private def applyReassigns(candidates: Seq[Reassign.Candidate], hidden: Set[Long],
                             written: Seq[PostingRow]): (RebalanceStats, Seq[PostingRow]) = {
    val (checked, moves) = Reassign.pass(candidates, idx.centroids, idx.versions, cfg) { movers =>
      val vids = movers.map(_._1).toSet
      val fresh = written.collect { case r if vids(r.vid) => r.vid -> r.pid }.groupMap(_._1)(_._2)
      vids.iterator.map { vid =>
        val version = idx.versions.currentVersion(vid)
        vid -> (idx.links(vid).filterNot(hidden) ++ fresh.getOrElse(vid, Nil)).map(_ -> version)
      }.toMap
    }
    moves.foreach(m => idx.unlink(m.c.vid))
    (RebalanceStats(reassignChecked = checked, reassignMoved = moves.size),
      moves.flatMap(m => m.targets.map(PostingRow(m.c.vid, _, m.version, m.c.vec))))
  }
}
