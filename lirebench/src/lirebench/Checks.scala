package lirebench

import scala.collection.mutable

import repro.core.VectorMath
import repro.core.engine.SpFreshEngine

/** Output checks. Each returns whether the observed output is correct; the
  * caller records it in the [[Report]] ledger. A check that fails is a
  * failed operation, never dropped.
  */
object Checks {

  /** A search answer is correct when it holds exactly `k` distinct ids and
    * every one of them is live: not deleted by the workload (`live`), and
    * not stale or tombstoned in the index's own version map (`indexLive`).
    */
  def searchResult(ids: Seq[Long], k: Int, live: Long => Boolean, indexLive: Long => Boolean): Boolean =
    ids.length == k && ids.distinct.length == k && ids.forall(id => live(id) && indexLive(id))

  /** Postings whose raw length is over the split limit after the rebuilder
    * has drained: LIRE promises none.
    */
  def oversized(rawSizes: Iterable[Long], splitLimit: Int): Int = rawSizes.count(_ > splitLimit)

  /** End-of-run replica census of the single-node engine. For each live
    * vector: does any live replica exist, and does its nearest posting
    * (the nearest-partition assignment, NPA) hold one? The nearest posting
    * is found by an exact scan over the centroids (ties to the lower pid),
    * not through the index under test.
    *
    * @return (vectors without a live replica, NPA violations)
    */
  def replicaCensus(e: SpFreshEngine, live: collection.Map[Long, Array[Float]]): (Int, Int) = {
    val centroids = e.centroids.all.toArray.sortBy(_._1)
    val replicas = mutable.LongMap.empty[Int]
    val held = mutable.HashSet.empty[(Long, Long)]
    e.store.postingIds.foreach { pid =>
      e.store.get(pid).foreach { r =>
        if (!e.versions.isStale(r.vid, r.version)) {
          replicas(r.vid) = replicas.getOrElse(r.vid, 0) + 1
          held += ((pid, r.vid))
        }
      }
    }
    var missing = 0; var npa = 0
    live.foreach { case (vid, vec) =>
      if (replicas.getOrElse(vid, 0) == 0) missing += 1
      var nearest = -1L; var best = Double.MaxValue
      centroids.foreach { case (pid, c) =>
        val d = VectorMath.sqDist(vec, c)
        if (d < best) { best = d; nearest = pid }
      }
      if (!held((nearest, vid))) npa += 1
    }
    (missing, npa)
  }

  /** Whether the NPA violations left after a full drain are within the
    * engine's specified tolerance: at most 1% of the live vectors, the
    * bound `SpFreshEngineSpec` ("NPA holds after rebalance") asserts. LIRE
    * keeps NPA by reassigning only the candidates its two conditions name,
    * so it promises near-zero violations, not zero; the exact count is
    * reported as `engine.npa_violations_end`.
    */
  def npaWithinTolerance(violations: Int, live: Int): Boolean = violations <= live / 100
}
