package repro.centroid

import scala.util.Random

import repro.SparkSpec
import repro.core.VectorMath

/** Exact brute-force centroid index: the SPTAG role at reproduction scale. */
class CentroidIndexSpec extends SparkSpec {

  private def fresh(n: Int, dim: Int, seed: Long): (BruteForceCentroidIndex, IndexedSeq[Array[Float]]) = {
    val rnd = new Random(seed)
    val idx = new BruteForceCentroidIndex
    val cs = IndexedSeq.fill(n)(Array.fill(dim)(rnd.nextFloat() * 100))
    cs.zipWithIndex.foreach { case (c, i) => idx.insert(i.toLong, c) }
    (idx, cs)
  }

  test("nearest(1) returns the exact nearest centroid") {
    val (idx, cs) = fresh(50, 8, 1)
    val rnd = new Random(2)
    (1 to 20).foreach { _ =>
      val q = Array.fill(8)(rnd.nextFloat() * 100)
      val expect = cs.indices.minBy(i => VectorMath.sqDist(q, cs(i)))
      assert(idx.nearest(q, 1).head._1 == expect.toLong)
    }
  }

  test("nearest(k) is sorted ascending by distance") {
    val (idx, _) = fresh(30, 4, 3)
    val ds = idx.nearest(Array.fill(4)(50f), 10).map(_._2)
    assert(ds == ds.sorted)
  }

  test("nearest with k larger than size returns all centroids") {
    val (idx, _) = fresh(5, 4, 4)
    assert(idx.nearest(Array.fill(4)(0f), 100).length == 5)
  }

  test("insert of an existing pid is rejected") {
    val (idx, _) = fresh(3, 2, 5)
    intercept[IllegalArgumentException](idx.insert(0L, Array(0f, 0f)))
  }

  test("remove hides a centroid from search") {
    val (idx, cs) = fresh(10, 2, 6)
    val q = cs(3)
    assert(idx.nearest(q, 1).head._1 == 3L)
    idx.remove(3L)
    assert(idx.nearest(q, 1).head._1 != 3L)
    assert(idx.size == 9)
  }

  test("get returns the stored centroid, None after removal") {
    val (idx, cs) = fresh(5, 3, 7)
    assert(idx.get(2L).exists(_.sameElements(cs(2))))
    idx.remove(2L)
    assert(idx.get(2L).isEmpty)
  }

  test("all iterates only live centroids") {
    val (idx, _) = fresh(6, 2, 8)
    idx.remove(1L)
    idx.remove(4L)
    assert(idx.all.map(_._1).toSet == Set(0L, 2L, 3L, 5L))
  }

  test("distance computations accumulate with searches") {
    val (idx, _) = fresh(20, 2, 9)
    val before = idx.distanceComputations
    idx.nearest(Array(0f, 0f), 1)
    assert(idx.distanceComputations == before + 20)
  }

  test("ties break by pid for determinism") {
    val idx = new BruteForceCentroidIndex
    idx.insert(9L, Array(1f))
    idx.insert(2L, Array(-1f))
    assert(idx.nearest(Array(0f), 2).map(_._1) == Seq(2L, 9L))
  }

  /** The pre-selection `nearest`: score every centroid, sort, take k. */
  private def sortedNearest(cs: Map[Long, Array[Float]], q: Array[Float], k: Int): Seq[(Long, Double)] =
    cs.toSeq.map { case (pid, c) => (pid, VectorMath.sqDist(q, c)) }
      .sortBy { case (pid, d) => (d, pid) }.take(k)

  test("bounded nearest equals a full sort through interleaved inserts and removes") {
    val rnd = new Random(10)
    val idx = new BruteForceCentroidIndex
    var ref = Map.empty[Long, Array[Float]]
    var nextPid = 0L
    // Integer coordinates on a small grid: many centroids tie on distance,
    // so the lower-pid rule decides the order.
    def point(): Array[Float] = Array.fill(3)(rnd.nextInt(5).toFloat)
    (1 to 300).foreach { step =>
      if (ref.isEmpty || rnd.nextDouble() < 0.6) {
        val c = point()
        idx.insert(nextPid, c)
        ref += nextPid -> c
        nextPid += 1
      } else {
        val victim = ref.keys.toIndexedSeq(rnd.nextInt(ref.size))
        idx.remove(victim)
        ref -= victim
        assert(idx.get(victim).isEmpty)
        assert(idx.size == ref.size)
        assert(idx.all.map(_._1).toSet == ref.keySet)
        ref.foreach { case (pid, c) => assert(idx.get(pid).exists(_ eq c), s"pid $pid at step $step") }
      }
      val q = point()
      Seq(0, 1, 2, 8, 17, ref.size, ref.size + 5).foreach { k =>
        val before = idx.distanceComputations
        assert(idx.nearest(q, k) == sortedNearest(ref, q, k), s"k=$k at step $step")
        assert(idx.distanceComputations == before + ref.size)
      }
    }
  }

  test("empty index returns no results") {
    val idx = new BruteForceCentroidIndex
    assert(idx.nearest(Array(1f), 3).isEmpty)
    assert(idx.size == 0)
  }
}
