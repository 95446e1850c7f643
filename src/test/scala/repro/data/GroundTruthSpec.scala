package repro.data

import repro.SparkSpec

/** Exact-KNN ground truth: the local scan and the recall math. */
class GroundTruthSpec extends SparkSpec {

  test("topK returns the exact nearest ids in order") {
    val data = Seq(1L -> Array(0f, 0f), 2L -> Array(1f, 0f), 3L -> Array(5f, 0f))
    assert(GroundTruth.topK(Array(0.9f, 0f), data, 2) == Seq(2L, 1L))
  }

  test("topK ties break by id") {
    val data = Seq(7L -> Array(1f), 3L -> Array(-1f))
    assert(GroundTruth.topK(Array(0f), data, 2) == Seq(3L, 7L))
  }

  test("recall of identical sets is 1") {
    assert(GroundTruth.recall(Seq(1L, 2L, 3L), Seq(3L, 2L, 1L)) == 1.0)
  }

  test("recall of disjoint sets is 0") {
    assert(GroundTruth.recall(Seq(1L), Seq(2L)) == 0.0)
  }

  test("recall counts partial overlap") {
    assert(GroundTruth.recall(Seq(1L, 2L, 4L, 5L), Seq(1L, 2L, 3L, 6L)) == 0.5)
  }

  test("meanRecall averages per-query recalls") {
    val r = GroundTruth.meanRecall(Seq(Seq(1L), Seq(2L)), Seq(Seq(1L), Seq(3L)))
    assert(r == 0.5)
  }

  test("meanRecall rejects mismatched batches") {
    intercept[IllegalArgumentException](GroundTruth.meanRecall(Seq(Seq(1L)), Seq.empty))
  }
}
