package repro.core

import repro.centroid.CentroidIndex

/** LIRE's reassign (§3.3, §4.2.2), the same for both engines: the engine
  * runs one pass per split or merge event, the lake one per round.
  */
object Reassign {

  /** A vector flagged for a check: `vid`, read at `version` from `home`. */
  final case class Candidate(vid: Long, vec: Array[Float], home: Long, version: Int)

  /** A live row read from posting `home`, as a candidate at its version. */
  def homed(r: PostingRecord, home: Long): Candidate = Candidate(r.vid, r.vec, home, r.version)

  /** A moved candidate: its new `version`, the closure postings it goes to,
    * and the postings of the reader's rows of it that the move leaves stale.
    */
  final case class Move(c: Candidate, version: Int, targets: Seq[Long], staled: Seq[Long])

  /** A split's reassign range (Eq. 2): the `reassignRange` postings of
    * `near` (nearest the old centroid first) that did not split in the same
    * event or round.
    */
  def range(near: Seq[Long], split: Long => Boolean, cfg: LireConfig): Seq[Long] =
    near.filterNot(split).take(cfg.reassignRange)

  /** Eq. 2 over the live rows of a range posting: the rows that some split
    * whose range holds it, given as (old centroid, new centroids), checks.
    */
  def rangeCandidates[R <: PostingRecord](live: Seq[R], splits: Seq[(Array[Float], Seq[Array[Float]])]): Seq[R] =
    live.filter(r => splits.exists { case (oldC, newCs) => Lire.condition2(r.vec, oldC, newCs) })

  /** One reassign pass over one event's candidates, in the caller's
    * priority order:
    *  1. each vid is checked once, from its first candidate;
    *  2. a vid whose version moved on, or that is tombstoned, aborts;
    *  3. the final NPA check (§3.3), one `nearest(v, 1)`: a move needs a
    *     nearest posting `best` that is not home and is strictly closer
    *     ([[Lire.reassignImproves]]; a home with no centroid loses to any);
    *  4. one `rows` call over these would-be movers, as `(vid, best)`, gives
    *     the rows it knows of each vid as `(pid, version)`. A mover whose
    *     `best` holds a live replica stays, as NPA already holds; any other
    *     CAS-bumps its version (§4.2.2; a lost CAS aborts) and goes to its
    *     closure postings ([[Lire.closure]]), keeping its boundary replicas.
    * No centroid changes within a pass and a move writes only its own vid's
    * rows, so the batched read gives each verdict what its own read would.
    *
    * @return the number of vids checked, and the moves in candidate order
    */
  def pass(cands: Seq[Candidate], centroids: CentroidIndex, versions: VersionMap, cfg: LireConfig)(
      rows: Seq[(Long, Long)] => Long => Seq[(Long, Int)]): (Int, Seq[Move]) = {
    val checked = cands.distinctBy(_.vid)
    val wouldMove = for {
      c <- checked
      if versions.currentVersion(c.vid) == c.version && !versions.isDeleted(c.vid)
      (best, _) <- centroids.nearest(c.vec, 1).headOption
      if best != c.home && centroids.get(c.home).forall(Lire.reassignImproves(c.vec, _, centroids.get(best).get))
    } yield c -> best
    val known = rows(wouldMove.map { case (c, best) => c.vid -> best })
    val moves = wouldMove.flatMap { case (c, best) =>
      val held = known(c.vid)
      if (held.exists { case (pid, ver) => pid == best && !versions.isStale(c.vid, ver) }) None
      else versions.tryBumpVersion(c.vid, c.version).map { version =>
        Move(c, version, Lire.closure(centroids.nearest(c.vec, cfg.maxReplicas), cfg.replicaEpsilon),
          held.collect { case (pid, ver) if ver == c.version => pid })
      }
    }
    (checked.size, moves)
  }
}
