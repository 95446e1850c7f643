package repro.cluster

import scala.util.Random

import repro.core.VectorMath

/** Multi-constraint balanced k-means — the clustering substrate SPANN (§3.1)
  * and the Local Rebuilder's split operator (§4.2.1) rely on.
  *
  * Lloyd iterations with a size-penalized assignment: a point joins cluster
  * `j` minimizing `sqDist(v, c_j) + lambda · count_j`, with counts updated
  * online in a shuffled order. The penalty pushes assignments toward equal
  * cluster sizes while staying distance-driven, which is the behavior the
  * paper's "multi-constraint balanced clustering algorithm in [SPANN]"
  * provides: high-quality centroids *and* balanced postings.
  */
object BalancedKMeans {

  /** Result of a clustering run: per-cluster centroids and the membership of
    * each input point (index-aligned with the input).
    */
  final case class Result(centroids: IndexedSeq[Array[Float]], assignment: IndexedSeq[Int]) {
    def clusterSizes: IndexedSeq[Int] = {
      val c = new Array[Int](centroids.length)
      assignment.foreach(a => c(a) += 1)
      c.toIndexedSeq
    }
  }

  /** Cluster `points` into `k` balanced groups.
    *
    * Two balance mechanisms compose (the "multi-constraint" part):
    * a soft size penalty in the assignment cost, and a hard per-cluster
    * capacity of `ceil(n/k · maxRatio)` that a greedy pass may never
    * exceed — the latter guarantees the split operator always produces two
    * bounded postings regardless of data skew.
    *
    * @param lambdaScale penalty strength relative to the mean pairwise scale
    *                    of the data; 0 disables the soft penalty
    * @param maxRatio    hard cap on cluster size as a multiple of the even
    *                    share n/k; <= 0 disables the capacity constraint
    *                    (plain k-means)
    */
  def cluster(
      points: IndexedSeq[Array[Float]],
      k: Int,
      seed: Long = 0,
      maxIters: Int = 20,
      lambdaScale: Double = 1.0,
      maxRatio: Double = 1.5,
  ): Result = {
    require(points.nonEmpty, "cannot cluster zero points")
    require(k >= 1, "k must be positive")
    val kk = math.min(k, points.length)
    val rnd = new Random(seed)

    // k-means++ style seeding for centroid quality.
    var centroids = seed1(points, kk, rnd)
    var assignment = new Array[Int](points.length)

    // Penalty scale: average distance from the first centroid, per expected
    // cluster size — keeps lambda meaningful across dims and data ranges.
    val avgD = points.iterator.map(p => VectorMath.sqDist(p, centroids(0))).sum / points.length
    val lambda = lambdaScale * avgD / math.max(1.0, points.length.toDouble / kk)

    // Hard capacity: k·cap >= n·maxRatio > n, so a non-full cluster always
    // exists during the greedy pass.
    val cap =
      if (maxRatio <= 0) Int.MaxValue
      else math.max(1, math.ceil(points.length.toDouble / kk * maxRatio).toInt)

    var it = 0
    var changed = true
    while (it < maxIters && changed) {
      changed = false
      val counts = new Array[Int](kk)
      val order = rnd.shuffle(points.indices.toIndexedSeq)
      val next = new Array[Int](points.length)
      order.foreach { i =>
        val p = points(i)
        var best = -1
        var bestCost = Double.MaxValue
        var j = 0
        while (j < kk) {
          if (counts(j) < cap) {
            val cost = VectorMath.sqDist(p, centroids(j)) + lambda * counts(j)
            if (cost < bestCost) { bestCost = cost; best = j }
          }
          j += 1
        }
        next(i) = best
        counts(best) += 1
      }
      if (!java.util.Arrays.equals(next, assignment)) changed = true
      assignment = next
      centroids = recompute(points, assignment, centroids, kk)
      it += 1
    }
    Result(centroids, assignment.toIndexedSeq)
  }

  /** Balanced two-way split of one oversized posting (§4.2.1 split job) and
    * of every level of the hierarchical build: the input indices of the two
    * halves of a balanced 2-means, each ascending. A degenerate clustering
    * (one side empty, e.g. all duplicates) is cut by force at `n/2`, which
    * keeps both halves non-empty and so guarantees termination.
    */
  def bisect(points: IndexedSeq[Array[Float]], seed: Long): (IndexedSeq[Int], IndexedSeq[Int]) = {
    val a = cluster(points, k = 2, seed = seed).assignment
    val (left, right) = points.indices.partition(a(_) == 0)
    if (left.isEmpty || right.isEmpty) points.indices.splitAt(points.length / 2)
    else (left, right)
  }

  private def seed1(points: IndexedSeq[Array[Float]], k: Int, rnd: Random): IndexedSeq[Array[Float]] = {
    val first = points(rnd.nextInt(points.length))
    val chosen = scala.collection.mutable.ArrayBuffer(first)
    while (chosen.length < k) {
      // k-means++: sample proportional to squared distance to nearest chosen.
      val d2 = points.map(p => chosen.iterator.map(c => VectorMath.sqDist(p, c)).min)
      val total = d2.sum
      if (total <= 0) {
        chosen += points(rnd.nextInt(points.length))
      } else {
        var u = rnd.nextDouble() * total
        var i = 0
        while (i < points.length - 1 && u > d2(i)) { u -= d2(i); i += 1 }
        chosen += points(i)
      }
    }
    chosen.toIndexedSeq
  }

  private def recompute(
      points: IndexedSeq[Array[Float]],
      assignment: Array[Int],
      prev: IndexedSeq[Array[Float]],
      k: Int,
  ): IndexedSeq[Array[Float]] = {
    val groups = points.indices.groupBy(assignment(_))
    IndexedSeq.tabulate(k) { j =>
      groups.get(j) match {
        case Some(idx) => VectorMath.mean(idx.map(points(_)))
        case None      => prev(j) // empty cluster keeps its old centroid
      }
    }
  }
}
