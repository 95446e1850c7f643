package repro.cluster

import scala.util.Random

import repro.SparkSpec
import repro.core.VectorMath

/** Balance and quality invariants of the multi-constraint balanced k-means
  * (the SPANN §3.1 substrate and the split operator's core).
  */
class BalancedKMeansSpec extends SparkSpec {

  private def blob(n: Int, center: Array[Float], sigma: Double, rnd: Random): IndexedSeq[Array[Float]] =
    IndexedSeq.fill(n)(center.map(c => (c + rnd.nextGaussian() * sigma).toFloat))

  test("k=1 returns a single cluster holding everything") {
    val rnd = new Random(1)
    val pts = blob(50, Array(0f, 0f), 1.0, rnd)
    val r = BalancedKMeans.cluster(pts, 1)
    assert(r.centroids.length == 1)
    assert(r.clusterSizes == IndexedSeq(50))
  }

  test("assignment covers every point exactly once") {
    val rnd = new Random(2)
    val pts = blob(100, Array(0f, 0f), 5.0, rnd)
    val r = BalancedKMeans.cluster(pts, 4)
    assert(r.assignment.length == 100)
    assert(r.clusterSizes.sum == 100)
  }

  test("two well-separated blobs are recovered by k=2") {
    val rnd = new Random(3)
    val a = blob(60, Array(0f, 0f), 1.0, rnd)
    val b = blob(60, Array(100f, 100f), 1.0, rnd)
    val r = BalancedKMeans.cluster(a ++ b, 2)
    val sidesA = (0 until 60).map(r.assignment(_)).toSet
    val sidesB = (60 until 120).map(r.assignment(_)).toSet
    assert(sidesA.size == 1 && sidesB.size == 1 && sidesA != sidesB)
  }

  test("bisect of a uniform blob is near-even (balance constraint)") {
    val rnd = new Random(4)
    val pts = blob(200, Array(0f, 0f, 0f, 0f), 10.0, rnd)
    val (a, b) = BalancedKMeans.bisect(pts, seed = 0)
    val sizes = Seq(a.length, b.length)
    assert(sizes.min.toDouble / sizes.max >= 0.5, s"unbalanced split: $sizes")
  }

  test("bisect of a skewed blob pair still bounds the imbalance") {
    val rnd = new Random(5)
    // 170 points in one blob, 30 in another: the balance penalty must stop
    // the big blob from swallowing everything into one side.
    val pts = blob(170, Array(0f, 0f), 3.0, rnd) ++ blob(30, Array(30f, 0f), 3.0, rnd)
    val (a, b) = BalancedKMeans.bisect(pts, seed = 0)
    val sizes = Seq(a.length, b.length)
    assert(sizes.min >= 30, s"split too skewed: $sizes")
  }

  test("bisect halves partition the input, each in ascending order") {
    val pts = blob(101, Array(0f, 0f), 5.0, new Random(10))
    val (a, b) = BalancedKMeans.bisect(pts, seed = 3)
    assert(a.nonEmpty && b.nonEmpty)
    assert(a == a.sorted && b == b.sorted)
    assert((a ++ b).sorted == pts.indices)
  }

  test("lambdaScale=0 with no capacity reduces to plain k-means (can be unbalanced)") {
    val rnd = new Random(6)
    val pts = blob(180, Array(0f, 0f), 1.0, rnd) ++ blob(20, Array(50f, 0f), 1.0, rnd)
    val plain = BalancedKMeans.cluster(pts, 2, lambdaScale = 0.0, maxRatio = 0.0)
    val sizes = plain.clusterSizes
    assert(sizes.contains(180) || sizes.max >= 170, s"plain k-means should track density: $sizes")
  }

  test("hard capacity bounds every cluster at ceil(n/k * maxRatio)") {
    val rnd = new Random(7)
    // Heavily skewed, far-separated blobs: plain k-means yields 240/40; the
    // multi-constraint capacity must cap the big cluster regardless.
    val pts = blob(240, Array(0f, 0f), 2.0, rnd) ++ blob(40, Array(60f, 0f), 2.0, rnd)
    val bal = BalancedKMeans.cluster(pts, 2, maxRatio = 1.5)
    val plain = BalancedKMeans.cluster(pts, 2, lambdaScale = 0.0, maxRatio = 0.0)
    val cap = math.ceil(280.0 / 2 * 1.5).toInt
    assert(bal.clusterSizes.forall(_ <= cap), s"capacity violated: ${bal.clusterSizes}")
    assert(bal.clusterSizes.min > plain.clusterSizes.min,
      s"balanced=${bal.clusterSizes} plain=${plain.clusterSizes}")
  }

  test("centroids land near the true blob centers") {
    val rnd = new Random(8)
    val pts = blob(100, Array(0f, 0f), 1.0, rnd) ++ blob(100, Array(50f, 0f), 1.0, rnd)
    val r = BalancedKMeans.cluster(pts, 2)
    val ds = r.centroids.map(c => math.min(VectorMath.dist(c, Array(0f, 0f)), VectorMath.dist(c, Array(50f, 0f))))
    assert(ds.forall(_ < 5.0), s"centroids off-target: ${r.centroids.map(_.toSeq)}")
  }

  test("clustering is deterministic in the seed") {
    val rnd = new Random(9)
    val pts = blob(80, Array(0f, 0f), 5.0, rnd)
    val a = BalancedKMeans.cluster(pts, 3, seed = 42)
    val b = BalancedKMeans.cluster(pts, 3, seed = 42)
    assert(a.assignment == b.assignment)
    assert(a.centroids.map(_.toSeq) == b.centroids.map(_.toSeq))
  }

  test("k greater than point count degrades gracefully") {
    val pts = IndexedSeq(Array(0f), Array(1f), Array(2f))
    val r = BalancedKMeans.cluster(pts, 10)
    assert(r.centroids.length == 3)
    assert(r.clusterSizes.sum == 3)
  }

  test("all-duplicate points terminate and stay assigned") {
    val pts = IndexedSeq.fill(40)(Array(1f, 1f))
    val (a, b) = BalancedKMeans.bisect(pts, seed = 0)
    assert(a.length + b.length == 40)
  }

  test("bisect cuts at n/2 when the 2-means leaves one side empty") {
    // On duplicates every cost ties and the first cluster takes points up
    // to its capacity ceil(1.5·n/2); for n <= 3 that is all of them, so
    // the forced cut is the only way to two non-empty halves.
    for (n <- 2 to 3; seed <- 0L to 2L) {
      val pts = IndexedSeq.fill(n)(Array(1f, 1f))
      assert(BalancedKMeans.cluster(pts, 2, seed = seed).clusterSizes.contains(0))
      val (a, b) = BalancedKMeans.bisect(pts, seed)
      assert((a, b) == pts.indices.splitAt(n / 2))
      assert(a.nonEmpty && b.nonEmpty)
    }
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException](BalancedKMeans.cluster(IndexedSeq.empty, 2))
  }
}
