package repro.core.distributed

import org.apache.spark.sql.{DataFrame, Dataset}
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
  * balanced again. Each oversized posting goes through the engine's split
  * event ([[PostingSplit.split]]: GC, balanced 2-means bisection, the two
  * centroids and the split posting's Eq. 1 candidates) *inside an
  * executor* (`groupByKey.mapGroups`); one action reads the centroids and
  * candidates back to the driver, which allocates the fresh pids in
  * ascending old-pid order. Eq. 2 on the reassign-range neighbors is a
  * DataFrame filter, and surviving moves append fresh-version rows while
  * the stale replicas await the next GC. Convergence of the loop is the
  * paper's §3.4 theorem — each round strictly increases the centroid
  * count, bounded by the number of live vectors.
  */
final class DistRebalancer(idx: DistIndex) {
  import idx.spark
  private val cfg = idx.cfg

  /** Rebalance to a stable state (or `maxRounds`). The lake's posting
    * sizes are scanned once per lake version: at the start and after each
    * commit. Only a commit changes them here, since every version bump of
    * a reassign is committed with it.
    */
  def run(maxRounds: Int = 50): RebalanceStats = {
    var stats = RebalanceStats()
    var sizes = idx.rawSizesAndLive()
    var scanned = idx.commits
    def current(): Map[Long, (Long, Long)] = {
      if (idx.commits != scanned) { sizes = idx.rawSizesAndLive(); scanned = idx.commits }
      sizes
    }
    var progress = true
    while (progress && stats.rounds < maxRounds) {
      val split = splitRound(current())
      val merge = mergeRound(current())
      stats = stats + split + merge + RebalanceStats(rounds = 1)
      progress = (split.splits + split.gcOnlySplits + merge.merges) > 0
    }
    stats
  }

  /** One split round over every posting whose raw size is over the limit:
    * the split event ([[PostingSplit.split]]) runs in one executor pass next
    * to each posting's rows, and one action reads back each posting's
    * centroids and Eq. 1 candidates.
    */
  private def splitRound(sizes: Map[Long, (Long, Long)]): RebalanceStats = {
    import spark.implicits._
    val oversized = sizes.collect { case (pid, (raw, _)) if Lire.needsSplit(raw.toInt, cfg) => pid }.toSeq
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

    // The driver reads the centroids and Eq. 1 candidates, not the halves.
    val events = splitOut.map(s => s.oldPid -> s.split.map(_.copy(half0 = Nil, half1 = Nil)))
      .collect().sortBy(_._1)
    val splits = events.collect { case (pid, Some(sp)) => pid -> sp }
    val gcOnlyCount = events.length - splits.length

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

    // The commit explodes the halves under their new posting ids
    // (GC-only rows keep theirs).
    val relabeled = splitOut.flatMap { s =>
      s.split.fold(s.gc) { sp =>
        val (p0, p1) = newPids(s.oldPid)
        sp.half0.map(_.copy(pid = p0)) ++ sp.half1.map(_.copy(pid = p1))
      }
    }.toDF()
    val kept = idx.postings.filter(!col("pid").isin(oversized: _*))
    val afterSplit = kept.unionByName(relabeled)

    // ---- reassign candidates -------------------------------------------
    // Condition 1 (Eq. 1) and the far-half rule: the split event's
    // candidates, homed in the new postings.
    val cand1 = splits.toSeq.flatMap { case (pid, sp) =>
      val (p0, p1) = newPids(pid)
      sp.cand0.map(_.copy(pid = p0)) ++ sp.cand1.map(_.copy(pid = p1))
    }.toDF().withColumnRenamed("pid", "fromPid")

    // Condition 2 (Eq. 2): vectors in the reassign range of each split.
    val neighborToSplits: Map[Long, Seq[Long]] =
      neighborMap.toSeq.flatMap { case (sp, nbrs) => nbrs.map(_ -> sp) }
        .groupMap(_._1)(_._2)
    val cand2 =
      if (neighborToSplits.isEmpty) spark.emptyDataFrame.select()
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
          .select(col("vid"), col("pid").as("fromPid"), col("version"), col("vec"))
      }
    val candidates = if (neighborToSplits.isEmpty) cand1 else cand1.unionByName(cand2)

    val (reassigned, withMoves) = applyReassigns(candidates, afterSplit)
    idx.commit(withMoves)
    splitOut.unpersist()
    RebalanceStats(splits = splits.length, gcOnlySplits = gcOnlyCount) + reassigned
  }

  /** One merge round over every posting whose live size is under the
    * threshold (§3.2 Merge).
    */
  private def mergeRound(sizes: Map[Long, (Long, Long)]): RebalanceStats = {
    // A posting can be all-stale (size 0 after reassigns): still merge it away.
    val undersized = idx.centroids.all.map(_._1)
      .filter(p => Lire.needsMerge(sizes.get(p).fold(0L)(_._2).toInt, cfg)).toSeq.sorted
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

    val live = idx.liveUdf
    val bcPlan = spark.sparkContext.broadcast(plan.toMap)
    val mergedPids = plan.keys.toSeq
    val relabelUdf = udf { (pid: Long) => bcPlan.value.getOrElse(pid, pid) }

    // The deleted posting's live rows are appended to the target (§3.2);
    // its stale rows are GC'd by the rewrite.
    val movedIn = idx.postings
      .filter(col("pid").isin(mergedPids: _*))
      .filter(live(col("vid"), col("version")))
      .select(col("vid"), relabelUdf(col("pid")).as("pid"), col("version"), col("vec"))
      .persist()
    val kept = idx.postings.filter(!col("pid").isin(mergedPids: _*))
      .select(col("vid"), col("pid"), col("version"), col("vec"))
    val afterMerge = kept.unionByName(movedIn)

    // §3.3: vectors from the deleted posting all need a reassign check.
    val candidates = movedIn.select(col("vid"), col("pid").as("fromPid"), col("version"), col("vec"))
    val (reassigned, withMoves) = applyReassigns(candidates, afterMerge)
    idx.commit(withMoves)
    movedIn.unpersist()
    RebalanceStats(merges = plan.size) + reassigned
  }

  /** Final NPA check + execution for reassign candidates (§3.3), on the
    * driver like the paper's Local Rebuilder: one Spark action collects the
    * candidate rows, and each distinct vid gets the engine's verdict
    * ([[repro.centroid.CentroidIndex.reassignTarget]]) against the *updated*
    * centroid set. The verdict needs to know whether the vid's nearest
    * posting already holds a live replica; for the candidates that would
    * move without one, a second action looks their `(vid, pid)` rows up in
    * `base`, and none runs when no candidate would move. A move CAS-bumps
    * the vid's version (§4.2.2; losers abort silently) and appends
    * fresh-version rows through the closure rule (boundary replicas
    * preserved). Old replicas everywhere become stale via the version map —
    * no in-place deletes, exactly the paper's replica story.
    *
    * @param candidates rows (vid, fromPid, version, vec)
    * @return the checked and moved counts, and `base` with the moves appended
    */
  private def applyReassigns(candidates: DataFrame, base: DataFrame): (RebalanceStats, DataFrame) = {
    import Ordering.Double.TotalOrdering
    val rows = candidates.select(col("vid"), col("fromPid"), col("version"), col("vec")).collect()
      .map { r =>
        val v = r.getSeq[Float](3).toArray
        val homeD = idx.centroids.get(r.getLong(1)).fold(Double.MaxValue)(VectorMath.sqDist(v, _))
        (r.getLong(0), r.getLong(1), r.getInt(2), v, homeD)
      }
    // A vid may be a candidate from several postings (replicas): check the
    // one closest to its current home — the primary — ties to the lower pid.
    val primaries = rows.groupBy(_._1).values.map(_.minBy(c => (c._5, c._2))).toSeq
    def verdict(c: (Long, Long, Int, Array[Float], Double), held: Long => Iterator[Int]) =
      idx.centroids.reassignTarget(c._4, c._1, c._2, idx.versions, held)
    // The would-be moves, before membership is known: their targets are the
    // only postings whose rows the verdict needs.
    val wouldMove = primaries.flatMap(c => verdict(c, _ => Iterator.empty).map(c -> _))
    val held: Map[(Long, Long), Array[Int]] =
      if (wouldMove.isEmpty) Map.empty
      else base
        .filter(col("pid").isin(wouldMove.map(_._2).distinct: _*) &&
          col("vid").isin(wouldMove.map(_._1._1): _*))
        .select(col("vid"), col("pid"), col("version")).collect()
        .groupMap(r => (r.getLong(0), r.getLong(1)))(_.getInt(2))
    val movedRows = wouldMove.flatMap { case (c @ (vid, _, version, v, _), _) =>
      verdict(c, pid => held.get((vid, pid)).fold(Iterator.empty[Int])(_.iterator))
        .flatMap(_ => idx.versions.tryBumpVersion(vid, version)).toSeq
        .flatMap { newVer =>
          Lire.closure(idx.centroids.nearest(v, cfg.maxReplicas), cfg.replicaEpsilon)
            .map(pid => PostingRow(vid, pid, newVer, v))
        }
    }
    import spark.implicits._
    val out =
      if (movedRows.isEmpty) base
      else base.unionByName(movedRows.toDF().select(col("vid"), col("pid"), col("version"), col("vec")))
    (RebalanceStats(reassignChecked = primaries.size, reassignMoved = movedRows.map(_.vid).distinct.size), out)
  }
}
