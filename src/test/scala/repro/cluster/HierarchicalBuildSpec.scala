package repro.cluster

import repro.SparkSpec
import repro.core.VectorMath
import repro.data.VectorGen

/** SPANN-style initial build: size bounds, replica closure, centroid
  * fidelity.
  */
class HierarchicalBuildSpec extends SparkSpec {

  private def sample(n: Int, dim: Int, seed: Long): IndexedSeq[Array[Float]] = {
    val mix = VectorGen.mixture(dim, nClusters = 8, seed = seed)
    VectorGen.draw(mix, n, 0, seed + 1).map(_.vec)
  }

  test("every partition respects the target size (primary memberships)") {
    val pts = sample(500, 8, 1)
    val layout = HierarchicalBuild.build(pts, targetSize = 50, eps = 0.0, maxReplicas = 1)
    val counts = layout.memberships.flatten.groupBy(identity).view.mapValues(_.size)
    assert(counts.values.forall(_ <= 50), s"oversized partition: ${counts.filter(_._2 > 50)}")
  }

  test("every vector has at least one membership") {
    val pts = sample(200, 4, 2)
    val layout = HierarchicalBuild.build(pts, targetSize = 30)
    assert(layout.memberships.forall(_.nonEmpty))
  }

  test("primary membership is the nearest centroid") {
    val pts = sample(300, 4, 3)
    val layout = HierarchicalBuild.build(pts, targetSize = 40)
    pts.indices.foreach { i =>
      val nearest = layout.centroids.indices.minBy(c => VectorMath.sqDist(pts(i), layout.centroids(c)))
      assert(layout.memberships(i).head == nearest)
    }
  }

  test("replicas only go to centroids within the closure slack") {
    val pts = sample(300, 4, 4)
    val eps = 0.10
    val layout = HierarchicalBuild.build(pts, targetSize = 40, eps = eps, maxReplicas = 8)
    val slack = (1 + eps) * (1 + eps)
    pts.indices.foreach { i =>
      val dMin = VectorMath.sqDist(pts(i), layout.centroids(layout.memberships(i).head))
      layout.memberships(i).foreach { c =>
        assert(VectorMath.sqDist(pts(i), layout.centroids(c)) <= dMin * slack + 1e-9)
      }
    }
  }

  test("replica count never exceeds the cap") {
    val pts = sample(300, 4, 5)
    val layout = HierarchicalBuild.build(pts, targetSize = 40, eps = 0.5, maxReplicas = 4)
    assert(layout.memberships.forall(_.length <= 4))
  }

  test("eps=0 with dense data still yields ~1 replica per vector") {
    val pts = sample(200, 8, 6)
    val layout = HierarchicalBuild.build(pts, targetSize = 30, eps = 0.0, maxReplicas = 8)
    val mean = layout.memberships.map(_.length).sum.toDouble / pts.length
    assert(mean < 1.5, s"unexpected replica inflation: $mean")
  }

  test("larger eps produces more replicas (boundary closure grows)") {
    val pts = sample(400, 8, 7)
    val lo = HierarchicalBuild.build(pts, targetSize = 40, eps = 0.05)
    val hi = HierarchicalBuild.build(pts, targetSize = 40, eps = 0.30)
    def meanRep(l: HierarchicalBuild.Layout) = l.memberships.map(_.length).sum.toDouble / pts.length
    assert(meanRep(hi) > meanRep(lo))
  }

  test("single point builds a single posting") {
    val layout = HierarchicalBuild.build(IndexedSeq(Array(1f, 2f)), targetSize = 10)
    assert(layout.centroids.length == 1)
    assert(layout.memberships == IndexedSeq(Seq(0)))
  }

  test("duplicate-heavy input terminates (forced cut path)") {
    // targetSize 1 bisects the 100 duplicates down to runs of 2 and 3,
    // where the balanced 2-means leaves one side empty and only the
    // forced cut makes progress.
    val pts = IndexedSeq.fill(100)(Array(3f, 3f)) ++ sample(20, 2, 8).map(_.take(2))
    val layout = HierarchicalBuild.build(pts, targetSize = 1)
    val counts = layout.memberships.map(_.head).groupBy(identity).view.mapValues(_.size)
    assert(counts.values.sum == 120)
    assert(layout.centroids.length == 120)
  }

  test("build is deterministic in the seed") {
    val pts = sample(150, 4, 9)
    val a = HierarchicalBuild.build(pts, targetSize = 25, seed = 5)
    val b = HierarchicalBuild.build(pts, targetSize = 25, seed = 5)
    assert(a.memberships == b.memberships)
    assert(a.centroids.map(_.toSeq) == b.centroids.map(_.toSeq))
  }
}
