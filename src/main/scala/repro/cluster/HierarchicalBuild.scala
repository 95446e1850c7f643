package repro.cluster

import repro.core.{Lire, VectorMath}

/** SPANN's "fast hierarchical balanced clustering" (§3.1): recursively
  * bisect with [[BalancedKMeans.split2]] until every partition is at most
  * `targetSize`, then compute boundary-closure replica assignment.
  */
object HierarchicalBuild {

  /** Initial index layout: posting centroids plus each vector's posting
    * memberships (first entry is the nearest / primary posting).
    */
  final case class Layout(
      centroids: IndexedSeq[Array[Float]],
      memberships: IndexedSeq[Seq[Int]],
  )

  /** Partition `points` into postings of at most `targetSize` vectors.
    *
    * Replication (SPANN closure assignment): each vector additionally joins
    * any posting whose centroid is within `(1+eps)` of the nearest centroid
    * distance, capped at `maxReplicas` postings. Boundary vectors therefore
    * appear in several postings, which is what keeps recall high when the
    * query lands between clusters.
    */
  def build(
      points: IndexedSeq[Array[Float]],
      targetSize: Int,
      eps: Double = 0.10,
      maxReplicas: Int = 8,
      seed: Long = 0,
  ): Layout = {
    require(targetSize >= 1, "targetSize must be positive")
    val parts = scala.collection.mutable.ArrayBuffer[IndexedSeq[Int]]()

    def recurse(idx: IndexedSeq[Int], depth: Int): Unit =
      if (idx.length <= targetSize) parts += idx
      else {
        val sub = idx.map(points(_))
        val r = BalancedKMeans.split2(sub, seed = seed + depth * 31 + idx.head)
        val left = idx.indices.filter(i => r.assignment(i) == 0).map(idx(_))
        val right = idx.indices.filter(i => r.assignment(i) == 1).map(idx(_))
        // A degenerate split (all duplicates) is cut by force to guarantee
        // termination, matching SPANN's size-bounded construction.
        if (left.isEmpty || right.isEmpty) {
          val (a, b) = idx.splitAt(idx.length / 2)
          recurse(a, depth + 1); recurse(b, depth + 1)
        } else {
          recurse(left, depth + 1); recurse(right, depth + 1)
        }
      }

    recurse(points.indices, 0)
    val centroids = parts.map(idx => VectorMath.mean(idx.map(points(_)))).toIndexedSeq

    // Closure replica assignment against the final centroid set.
    val partIds = Array.tabulate(centroids.length)(_.toLong)
    val vecs = centroids.toArray
    val memberships = points.map { p =>
      Lire.closure(VectorMath.nearestK(p, partIds, vecs, vecs.length, maxReplicas).result, eps).map(_.toInt)
    }
    Layout(centroids, memberships)
  }
}
