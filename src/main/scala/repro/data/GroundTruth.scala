package repro.data

import repro.core.VectorMath

/** Exact K-nearest-neighbor ground truth, used to score RecallK@K (§2.1):
  * a local brute-force scan and the recall math.
  */
object GroundTruth {

  /** Exact top-`k` ids (ascending distance, id tiebreak) for one query over
    * a live vector set.
    */
  def topK(q: Array[Float], data: Iterable[(Long, Array[Float])], k: Int): Seq[Long] =
    VectorMath.topK(data.map { case (id, v) => (id, VectorMath.sqDist(q, v)) }, k).map(_._1)

  /** RecallK@K = |result ∩ truth| / |truth| (§2.1). */
  def recall(result: Seq[Long], truth: Seq[Long]): Double =
    if (truth.isEmpty) 1.0 else result.toSet.intersect(truth.toSet).size.toDouble / truth.size

  /** Mean recall over a query batch. */
  def meanRecall(results: Seq[Seq[Long]], truths: Seq[Seq[Long]]): Double = {
    require(results.length == truths.length, "result/truth batch size mismatch")
    if (results.isEmpty) 1.0
    else results.lazyZip(truths).map(recall).sum / results.length
  }
}
