package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core.VectorMath
import repro.core.distributed.DistIndex.sqDistUdf

/** Exact K-nearest-neighbor ground truth, used to score RecallK@K (§2.1).
  *
  * Two forms: a fast local brute-force scan (bench inner loop) and a Spark
  * crossJoin+window pipeline (oracle-checkable and used by the distributed
  * stress bench).
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

  /** Distributed exact KNN: for each row of `queries` (qid, qvec) return the
    * `k` nearest rows of `data` (id, vec) as (qid, id, rank). Pure Catalyst:
    * crossJoin → distance → window row_number.
    */
  def topKDf(spark: SparkSession, queries: DataFrame, data: DataFrame, k: Int): DataFrame = {
    val w = Window.partitionBy("qid").orderBy(col("d").asc, col("id").asc)
    queries
      .crossJoin(data)
      .withColumn("d", sqDistUdf(col("qvec"), col("vec")))
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") <= k)
      .select(col("qid"), col("id"), col("rank"))
  }
}
