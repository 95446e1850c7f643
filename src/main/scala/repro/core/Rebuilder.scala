package repro.core

import repro.centroid.CentroidIndex
import repro.cluster.{PostingSplit, Split}

/** The Local Rebuilder's split and merge events (§3.2–§3.3, §4.2.1), the
  * same for both engines: the engine runs a batch of one per split or merge
  * job, the lake one batch per split or merge round.
  */
object Rebuilder {

  /** One split event: posting `pid`'s live rows went to the fresh postings
    * `p0` and `p1`, as `split.half0` and `split.half1`.
    */
  final case class Done[R](pid: Long, p0: Long, p1: Long, split: Split[R])

  /** What a batch did: its split events in ascending old-pid order, the
    * postings that garbage collection alone fixed with their live rows, and
    * the reassign candidates in batch order, each homed in the posting it is
    * checked from.
    */
  final case class Batch[R](splits: Seq[Done[R]], gcOnly: Seq[(Long, Seq[R])], candidates: Seq[Reassign.Candidate])

  /** One merge event: posting `pid` and its centroid are gone, and its live `rows` go to `target`. */
  final case class Merge[R](pid: Long, target: Long, rows: Seq[R])

  /** What a merge batch did: its merges in ascending pid order, the GC-only
    * postings with their live rows, and each merged row homed in its target.
    */
  final case class Merges[R](merges: Seq[Merge[R]], gcOnly: Seq[(Long, Seq[R])], candidates: Seq[Reassign.Candidate])

  /** Run the split events of the `oversized` postings, as the paper's
    * Local Rebuilder reads, garbage-collects and bisects a posting in one
    * process (§4.2.1):
    *  1. each posting's reach: its old centroid's nearest postings up to the
    *     `reassignRange`-th that is not in the batch. Only batch postings
    *     can split, so the reach holds its reassign range ([[Reassign.range]]);
    *  2. one `read` of the batch postings and their reaches, which returns
    *     each posting's live rows (none for a posting it has no row of), and
    *     GC's dedupe ([[PostingSplit.onePerVid]]) of the batch postings;
    *  3. [[PostingSplit.split]] of each, seeded by `seed(pid)` only when it
    *     splits; two fresh pids per split in ascending old-pid order; the
    *     old centroids leave `centroids`, then the new ones join it (§4.1);
    *  4. the candidates: the splits' Eq. 1 and far-half rows homed in their
    *     halves, then Eq. 2 ([[Reassign.rangeCandidates]]) over each range
    *     posting's live rows, read once and homed there.
    * A posting with no centroid, gone since its split was asked for, is
    * skipped.
    */
  def splitBatch[R <: PostingRecord](oversized: Seq[Long], centroids: CentroidIndex, cfg: LireConfig,
                                     freshPid: () => Long, seed: Long => Long)(
      read: Set[Long] => Long => Seq[R]): Batch[R] = {
    val oldCs = oversized.sorted.flatMap(pid => centroids.get(pid).map(pid -> _))
    val oldC = oldCs.toMap
    val over = oldC.keySet
    val reach: Map[Long, Seq[Long]] =
      if (cfg.reassignRange == 0) Map.empty
      else oldCs.map { case (pid, c) =>
        val near = centroids.nearest(c, cfg.reassignRange + over.size).map(_._1)
        val cut = near.indices.filterNot(i => over(near(i))).lift(cfg.reassignRange - 1).fold(near.length)(_ + 1)
        pid -> near.take(cut)
      }.toMap
    val rows = read(over ++ reach.values.flatten)
    val live = oldCs.map { case (pid, _) => pid -> PostingSplit.onePerVid(rows(pid)) }.toMap
    val events = oldCs.map { case (pid, c) => pid -> PostingSplit.split(live(pid), (_: R).vec, c, cfg, seed(pid)) }
    val splits = events.collect { case (pid, Some(sp)) => Done(pid, freshPid(), freshPid(), sp) }
    splits.foreach(d => centroids.remove(d.pid))
    splits.foreach { d => centroids.insert(d.p0, d.split.c0); centroids.insert(d.p1, d.split.c1) }

    // Condition 1 and the far-half rule: the split postings' own rows.
    val cand1 = splits.flatMap { d =>
      d.split.cand0.map(Reassign.homed(_, d.p0)) ++ d.split.cand1.map(Reassign.homed(_, d.p1))
    }
    // Condition 2: the live rows of each split's reassign range.
    val split = splits.map(_.pid).toSet
    val checks = splits.flatMap { d =>
      Reassign.range(reach.getOrElse(d.pid, Nil), split, cfg).map(_ -> (oldC(d.pid) -> Seq(d.split.c0, d.split.c1)))
    }
    val cand2 = checks.map(_._1).distinct.flatMap { nb =>
      val nbLive = live.getOrElse(nb, PostingSplit.onePerVid(rows(nb)))
      Reassign.rangeCandidates(nbLive, checks.collect { case (`nb`, c) => c }).map(Reassign.homed(_, nb))
    }
    Batch(splits, events.collect { case (pid, None) => pid -> live(pid) }, cand1 ++ cand2)
  }

  /** Run the merge events of the `undersized` postings (§3.2 Merge, §4.1):
    *  1. a posting with no centroid, gone since its merge was asked for, is
    *     skipped, and nothing happens with fewer than two centroids;
    *  2. one `read` of the batch postings, and GC's dedupe
    *     ([[PostingSplit.onePerVid]]) of each;
    *  3. a posting no longer under the merge threshold is GC-only and keeps
    *     its centroid;
    *  4. in ascending pid order, each other posting leaves `centroids` and
    *     goes to its old centroid's nearest remaining posting. A posting an
    *     earlier merge of the batch chose as its target is skipped (no
    *     chains). Every target so outlives the batch, and merging stops
    *     with one centroid left at the least.
    * Only the merged rows need a reassign check (§3.3).
    */
  def mergeBatch[R <: PostingRecord](undersized: Seq[Long], centroids: CentroidIndex, cfg: LireConfig)(
      read: Set[Long] => Long => Seq[R]): Merges[R] = {
    val batch = undersized.sorted.filter(centroids.get(_).isDefined)
    if (batch.isEmpty || centroids.size < 2) return Merges(Nil, Nil, Nil)
    val rows = read(batch.toSet)
    val (gcOnly, small) = batch.map(pid => pid -> PostingSplit.onePerVid(rows(pid)))
      .partition { case (_, live) => !Lire.needsMerge(live.length, cfg) }
    var merges = Vector.empty[Merge[R]]
    small.foreach { case (pid, live) =>
      if (!merges.exists(_.target == pid)) {
        val c = centroids.get(pid).get
        centroids.remove(pid)
        merges :+= Merge(pid, centroids.nearest(c, 1).head._1, live)
      }
    }
    Merges(merges, gcOnly, merges.flatMap(m => m.rows.map(Reassign.homed(_, m.target))))
  }
}
