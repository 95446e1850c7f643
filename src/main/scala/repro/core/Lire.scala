package repro.core

import repro.core.VectorMath.sqDist

/** The LIRE protocol's pure decision rules (§3.2–§3.3 of the paper).
  *
  * These are shared verbatim by the single-node engine
  * ([[repro.core.engine.SpFreshEngine]]) and the Spark distributed index
  * ([[repro.core.distributed]]): both call into the same two *necessary
  * conditions* so their rebalancing behavior is identical by construction.
  */
object Lire {

  /** Equation (1): a vector `v` that lived in the split posting (old
    * centroid `oldC`) must be *checked* for reassignment iff the deleted
    * centroid is still at least as close as both new centroids. If a new
    * centroid beat the old one, NPA of `v` w.r.t. every other posting is
    * implied by the pre-split NPA state, so no check is needed.
    */
  def condition1(v: Array[Float], oldC: Array[Float], newCs: Seq[Array[Float]]): Boolean = {
    val dOld = sqDist(v, oldC)
    newCs.forall(c => dOld <= sqDist(v, c))
  }

  /** The reassign candidates of a split posting: Eq. 1, plus a vector the
    * balanced 2-means left on the half whose new centroid `ownC` is not the
    * nearer of the two. The balance constraint can put a vector on the far
    * half while the other half's centroid beats the old one, so Eq. 1 alone
    * would skip a vector whose nearest posting does not hold it.
    */
  def splitCandidate(v: Array[Float], oldC: Array[Float], ownC: Array[Float],
                     otherC: Array[Float]): Boolean =
    condition1(v, oldC, Seq(ownC, otherC)) || sqDist(v, ownC) >= sqDist(v, otherC)

  /** Equation (2): a vector `v` in a *nearby* posting must be checked iff at
    * least one new centroid moved closer than the deleted old centroid —
    * only then can a new posting possibly beat `v`'s current one.
    */
  def condition2(v: Array[Float], oldC: Array[Float], newCs: Seq[Array[Float]]): Boolean = {
    val dOld = sqDist(v, oldC)
    newCs.exists(c => sqDist(v, c) <= dOld)
  }

  /** Closure assignment (SPANN §3.1): given a vector's nearest postings
    * (ascending squared distance, at most `maxReplicas` of them, as
    * [[repro.centroid.CentroidIndex.nearest]] or [[VectorMath.nearestK]]
    * return them), the vector joins the nearest one and every other within
    * `(1+eps)` of the nearest distance — `(1+eps)^2` on squared distance.
    * The single rule behind the initial build, inserts and reassign moves
    * of both engines.
    */
  def closure(nearest: Seq[(Long, Double)], eps: Double): Seq[Long] =
    if (nearest.isEmpty) Seq.empty
    else {
      val slack = (1.0 + eps) * (1.0 + eps)
      val bound = nearest.head._2 * slack + 1e-12
      nearest.takeWhile(_._2 <= bound).map(_._1)
    }

  /** Split trigger (§3.2): posting length after GC exceeds the limit. */
  def needsSplit(liveLen: Int, cfg: LireConfig): Boolean = liveLen > cfg.splitLimit

  /** Merge trigger (§3.2): posting shrank below the minimum length. */
  def needsMerge(liveLen: Int, cfg: LireConfig): Boolean = liveLen < cfg.mergeThreshold

  /** Final NPA check executed at reassignment time (§3.3, false-positive
    * elimination): a move needs the newly found nearest centroid to be
    * strictly closer than the vector's current one.
    */
  def reassignImproves(v: Array[Float], currentC: Array[Float], bestC: Array[Float]): Boolean =
    sqDist(v, bestC) < sqDist(v, currentC)
}
