package repro.cluster

import repro.core.{Lire, LireConfig, VectorMath}

/** SPANN's "fast hierarchical balanced clustering" (§3.1): recursively
  * bisect with [[BalancedKMeans.bisect]] until every partition is at most
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
        val (left, right) = BalancedKMeans.bisect(idx.map(points(_)), seed + depth * 31 + idx.head)
        recurse(left.map(idx), depth + 1); recurse(right.map(idx), depth + 1)
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

  /** The initial layout of an index with split limit `cfg.splitLimit`,
    * the one build both engines run. Closure replication inflates posting
    * row counts well past the primary partition size (the paper observes
    * 5.47 replicas/vector), so the build runs two passes: a probe pass at
    * `0.6·splitLimit` measures the inflation and, when it exceeds 1.5, the
    * real pass sizes primary partitions at `0.8·splitLimit/inflation` so
    * the replicated postings land under the split limit. The stragglers
    * left over go through the engines' normal LIRE split path.
    */
  def forSplitLimit(points: IndexedSeq[Array[Float]], cfg: LireConfig, seed: Long): Layout = {
    def pass(targetSize: Double): Layout =
      build(points, math.max(1, targetSize.toInt), cfg.replicaEpsilon, cfg.maxReplicas, seed)
    val probe = pass(cfg.splitLimit * 0.6)
    val inflation =
      math.max(1.0, probe.memberships.iterator.map(_.length).sum.toDouble / points.length)
    if (inflation <= 1.5) probe else pass(cfg.splitLimit * 0.8 / inflation)
  }
}
