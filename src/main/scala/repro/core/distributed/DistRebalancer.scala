package repro.core.distributed

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.functions._

import repro.cluster.{PostingSplit, Split}
import repro.core.{Lire, VectorMath}

/** One oversized posting after its split event, as the lake's split round
  * emits it from an executor: the old pid and either the [[Split]] or, when
  * garbage collection alone fit the posting, its live rows in `gc`. Rows
  * keep the old pid until the driver has allocated the new ones.
  */
final case class SplitOut(oldPid: Long, gc: Seq[PostingRow], split: Option[Split[PostingRow]])

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

/** The Local Rebuilder (§4.2) as Spark jobs over the Parquet posting lake.
  *
  * One `run` executes split → reassign → merge rounds until the index is
  * balanced again. Which postings to split or merge it reads from the
  * lake's posting table, as the paper's rebuilder reads the block mapping's
  * length field (§4.3): no scan of the lake. Each oversized posting goes
  * through the engine's split event ([[PostingSplit.split]]: GC, balanced
  * 2-means bisection, the two centroids and the split posting's Eq. 1
  * candidates) *inside an executor* (`groupByKey.mapGroups`); one action
  * reads the centroids, candidates and half memberships back to the
  * driver, which allocates the fresh pids in ascending old-pid order. Eq. 2
  * on the reassign-range neighbors is a DataFrame filter, and surviving
  * moves append fresh-version rows while the stale replicas await the next
  * GC. A round's commit writes only its new rows. Convergence of the loop
  * is the paper's §3.4 theorem — each round strictly increases the
  * centroid count, bounded by the number of live vectors.
  */
final class DistRebalancer(idx: DistIndex) {
  import idx.spark
  import spark.implicits._
  private val cfg = idx.cfg

  /** Rebalance to a stable state (or `maxRounds`). The posting table's
    * live counts are settled first: one filtered action over the rows of
    * the vids deleted or re-inserted since the last run, none when there
    * are none.
    */
  def run(maxRounds: Int = 50): RebalanceStats = {
    idx.settle()
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
    * the split event ([[PostingSplit.split]]) runs in one executor pass next
    * to each posting's rows, and one action reads back each posting's
    * centroids, Eq. 1 candidates and the vids of the rows it writes.
    */
  private def splitRound(): RebalanceStats = {
    val oversized = idx.table.collect { case (pid, m) if Lire.needsSplit(m.raw.toInt, cfg) => pid }.toSeq.sorted
    if (oversized.isEmpty) return RebalanceStats()

    val live = idx.liveUdf
    val lire = cfg // locals, so the executor closure does not capture this rebalancer
    val oldCs = oversized.map(pid => pid -> idx.centroids.get(pid).get).toMap

    // GC + split event per oversized posting, inside executors.
    val splitOut: Dataset[SplitOut] = idx.postings
      .filter(col("pid").isin(oversized: _*))
      .filter(live(col("vid"), col("version")))
      .as[PostingRow]
      .groupByKey(_.pid)
      .mapGroups { (pid, it) =>
        val rows = it.toVector.groupBy(_.vid).valuesIterator.map(_.head).toVector
        val split = PostingSplit.split(rows, (_: PostingRow).vec, oldCs(pid), lire, pid)
        // GC alone fixed it: write back, keep pid and centroid (§4.2.1).
        SplitOut(pid, if (split.isEmpty) rows else Nil, split)
      }
      .persist()

    // The driver reads the centroids, the Eq. 1 candidates and the vids of
    // each written posting (the halves, or the GC'd rows), not the vectors.
    val events = splitOut.map { s =>
      val written = s.split.fold(Seq(s.gc))(sp => Seq(sp.half0, sp.half1))
      (s.oldPid, s.split.map(_.copy(half0 = Nil, half1 = Nil)), written.map(_.map(_.vid)))
    }.collect().sortBy(_._1)
    val splits = events.collect { case (pid, Some(sp), _) => pid -> sp }
    val gcOnly = events.collect { case (pid, None, _) => pid }

    // Allocate fresh pids in ascending old-pid order; update the driver
    // centroid index (§4.1: "update the memory SPTAG index with the new
    // posting centroids"). The reassign range of each split (Eq. 2) is the
    // old centroid's nearest postings among those not split this round
    // (their vectors go through Eq. 1), so it is taken between removing the
    // old centroids and inserting the new.
    val newPids: Map[Long, (Long, Long)] =
      splits.map { case (pid, _) => pid -> ((idx.freshPid(), idx.freshPid())) }.toMap
    val splitInfo: Map[Long, (Array[Float], Array[Float], Array[Float])] =
      splits.map { case (pid, sp) => pid -> ((oldCs(pid), sp.c0, sp.c1)) }.toMap
    splits.foreach { case (pid, _) => idx.centroids.remove(pid) }
    val neighborMap: Map[Long, Seq[Long]] =
      if (cfg.reassignRange == 0) Map.empty
      else splitInfo.map { case (pid, (oldC, _, _)) =>
        pid -> idx.centroids.nearest(oldC, cfg.reassignRange).map(_._1)
      }
    splits.foreach { case (pid, sp) =>
      val (p0, p1) = newPids(pid)
      idx.centroids.insert(p0, sp.c0)
      idx.centroids.insert(p1, sp.c1)
    }

    // The commit writes the halves under their new posting ids (GC-only
    // rows keep theirs); `written` is (vid, pid) of each of those rows.
    val relabeled = splitOut.flatMap { s =>
      s.split.fold(s.gc) { sp =>
        val (p0, p1) = newPids(s.oldPid)
        sp.half0.map(_.copy(pid = p0)) ++ sp.half1.map(_.copy(pid = p1))
      }
    }.toDF()
    val written = events.toSeq.flatMap { case (pid, _, vids) =>
      val pids = newPids.get(pid).fold(Seq(pid))(p => Seq(p._1, p._2))
      pids.zip(vids).flatMap { case (p, vs) => vs.map(_ -> p) }
    }

    // ---- reassign candidates -------------------------------------------
    // Condition 1 (Eq. 1) and the far-half rule: the split event's
    // candidates, homed in the new postings.
    val cand1 = splits.toSeq.flatMap { case (pid, sp) =>
      val (p0, p1) = newPids(pid)
      sp.cand0.map(_.copy(pid = p0)) ++ sp.cand1.map(_.copy(pid = p1))
    }

    // Condition 2 (Eq. 2): vectors in the reassign range of each split.
    val neighborToSplits: Map[Long, Seq[Long]] =
      neighborMap.toSeq.flatMap { case (sp, nbrs) => nbrs.map(_ -> sp) }
        .groupMap(_._1)(_._2)
    val cand2 =
      if (neighborToSplits.isEmpty) Seq.empty
      else {
        val bcNbr = spark.sparkContext.broadcast(neighborToSplits)
        val bcInfo = spark.sparkContext.broadcast(splitInfo)
        val cond2Udf = udf { (pid: Long, vec: Seq[Float]) =>
          bcNbr.value.get(pid) match {
            case None => false
            case Some(sps) =>
              val v = vec.toArray
              sps.exists { sp =>
                val (oldC, c0, c1) = bcInfo.value(sp)
                Lire.condition2(v, oldC, Seq(c0, c1))
              }
          }
        }
        idx.postings
          .filter(col("pid").isin(neighborToSplits.keys.toSeq: _*))
          .filter(live(col("vid"), col("version")))
          .filter(cond2Udf(col("pid"), col("vec")))
          .as[PostingRow].collect().toSeq
      }

    val (reassigned, moves, staled) = applyReassigns(cand1 ++ cand2, oversized.toSet, written)
    idx.commit(relabeled.unionByName(moves.toDF()), TableEdit(
      written = written.map(_._2) ++ moves.map(_.pid), staled = staled,
      dropped = splits.map(_._1).toSet, rewritten = gcOnly.toSet))
    splitOut.unpersist()
    RebalanceStats(splits = splits.length, gcOnlySplits = gcOnly.length) + reassigned
  }

  /** One merge round over every posting whose live size is under the
    * threshold (§3.2 Merge).
    */
  private def mergeRound(): RebalanceStats = {
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
    val movedIn = idx.postings
      .filter(col("pid").isin(plan.keys.toSeq: _*))
      .filter(idx.liveUdf(col("vid"), col("version")))
      .as[PostingRow].collect().toSeq
      .map(r => r.copy(pid = plan(r.pid)))

    // §3.3: vectors from the deleted posting all need a reassign check.
    val (reassigned, moves, staled) = applyReassigns(movedIn, plan.keySet.toSet, movedIn.map(r => r.vid -> r.pid))
    val rows = movedIn ++ moves
    idx.commit(rows.toDF(), TableEdit(written = rows.map(_.pid), staled = staled, dropped = plan.keySet.toSet))
    RebalanceStats(merges = plan.size) + reassigned
  }

  /** Final NPA check + execution for reassign candidates (§3.3), on the
    * driver like the paper's Local Rebuilder: each distinct vid among the
    * candidate rows gets the engine's verdict
    * ([[repro.centroid.CentroidIndex.reassignTarget]]) against the
    * *updated* centroid set. The verdict needs to know whether the vid's
    * nearest posting already holds a live replica: for the candidates that
    * would move without one, one action reads every lake row of their vids,
    * and none runs when no candidate would move. Those rows, outside the
    * postings the commit hides and with the rows it writes added, also
    * give the live rows a move leaves stale. A move CAS-bumps the vid's
    * version (§4.2.2; losers abort silently) and appends fresh-version rows
    * through the closure rule (boundary replicas preserved). Old replicas
    * everywhere become stale via the version map — no in-place deletes,
    * exactly the paper's replica story.
    *
    * @param candidates rows homed in the posting they are checked from
    * @param hidden     postings whose lake rows the commit hides
    * @param written    (vid, pid) of every row the commit writes, each live
    * @return the checked and moved counts, the moves' rows, and the posting
    *         of every visible row a move left stale
    */
  private def applyReassigns(
      candidates: Seq[PostingRow],
      hidden: Set[Long],
      written: Seq[(Long, Long)],
  ): (RebalanceStats, Seq[PostingRow], Seq[Long]) = {
    import Ordering.Double.TotalOrdering
    // A vid may be a candidate from several postings (replicas): check the
    // one closest to its current home — the primary — ties to the lower pid.
    def homeD(c: PostingRow) = idx.centroids.get(c.pid).fold(Double.MaxValue)(VectorMath.sqDist(c.vec, _))
    val primaries = candidates.groupBy(_.vid).values.map(_.minBy(c => (homeD(c), c.pid))).toSeq
    def verdict(c: PostingRow, held: Long => Iterator[Int]) =
      idx.centroids.reassignTarget(c.vec, c.vid, c.pid, idx.versions, held)
    // The would-be moves, before membership is known.
    val wouldMove = primaries.filter(verdict(_, _ => Iterator.empty).isDefined)
    // (pid, version) of every row each would-be mover has once the commit
    // lands; the commit's own rows are live, so at the vid's version now.
    val rowsOf: Map[Long, Seq[(Long, Int)]] =
      if (wouldMove.isEmpty) Map.empty
      else {
        val movers = wouldMove.map(_.vid).toSet
        val lake = idx.postings.filter(col("vid").isin(movers.toSeq: _*))
          .select(col("vid"), col("pid"), col("version")).collect()
          .collect { case r if !hidden(r.getLong(1)) => r.getLong(0) -> ((r.getLong(1), r.getInt(2))) }
        val fresh = written.collect { case (vid, pid) if movers(vid) =>
          vid -> ((pid, idx.versions.currentVersion(vid)))
        }
        (lake.toSeq ++ fresh).groupMap(_._1)(_._2)
      }
    val moves = wouldMove.flatMap { c =>
      val held = rowsOf.getOrElse(c.vid, Nil)
      verdict(c, pid => held.iterator.collect { case (`pid`, version) => version })
        .flatMap(_ => idx.versions.tryBumpVersion(c.vid, c.version))
        .map { newVer =>
          (idx.closure(c.vec).map(pid => PostingRow(c.vid, pid, newVer, c.vec)),
            held.collect { case (pid, version) if version == c.version => pid })
        }
    }
    (RebalanceStats(reassignChecked = primaries.size, reassignMoved = moves.size),
      moves.flatMap(_._1), moves.flatMap(_._2))
  }
}
