package repro.cluster

import repro.core.{Lire, LireConfig, PostingRecord, VectorMath}

/** The two postings one split event makes of an oversized one: the halves
  * of the balanced 2-means, their mean centroids, and the rows of each half
  * that [[Lire.splitCandidate]] flags for a reassign check (Eq. 1 plus the
  * far-half rule).
  */
final case class Split[R](half0: Seq[R], half1: Seq[R], c0: Array[Float], c1: Array[Float],
                          cand0: Seq[R], cand1: Seq[R])

object PostingSplit {

  /** Garbage collection's dedupe (§4.2.1), the same for both engines: one
    * row per vector id of a posting's live rows. The rows come out in the
    * order of a hash map over the vids, whatever order `rows` is in, so a
    * [[split]] of the result does not depend on the order the posting was
    * read in.
    */
  def onePerVid[R <: PostingRecord](rows: Iterable[R]): Vector[R] =
    rows.groupBy(_.vid).valuesIterator.map(_.head).toVector

  /** One split event of the Local Rebuilder (§3.2, §4.2.1), the same for
    * both engines: the engine's split job calls it on a posting read from
    * its block store, the lake's split round on the driver, on a posting
    * its split read collected.
    *
    * @param live the posting's rows after garbage collection (one per live
    *             vector, as [[onePerVid]] orders them)
    * @param oldC the split posting's centroid
    * @param seed the bisection's seed, evaluated only when the posting
    *             splits
    * @return `None` when garbage collection alone brought the posting back
    *         under the split limit
    */
  def split[R](live: IndexedSeq[R], vec: R => Array[Float], oldC: Array[Float], cfg: LireConfig,
               seed: => Long): Option[Split[R]] =
    if (!Lire.needsSplit(live.length, cfg)) None
    else {
      val (side0, side1) = BalancedKMeans.bisect(live.map(vec), seed)
      val half0 = side0.map(live)
      val half1 = side1.map(live)
      val c0 = VectorMath.mean(half0.map(vec))
      val c1 = VectorMath.mean(half1.map(vec))
      Some(Split(half0, half1, c0, c1,
        half0.filter(r => Lire.splitCandidate(vec(r), oldC, c0, c1)),
        half1.filter(r => Lire.splitCandidate(vec(r), oldC, c1, c0))))
    }
}
