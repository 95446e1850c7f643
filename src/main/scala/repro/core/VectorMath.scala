package repro.core

import scala.collection.immutable.ArraySeq

/** Dense float-vector primitives shared by every index in the repo.
  *
  * All distances are squared Euclidean (the paper assumes a Euclidean
  * space in §3.3; squared form preserves the ordering every LIRE
  * condition and every nearest-neighbor decision relies on, and avoids
  * the sqrt in inner loops).
  *
  * Every "k nearest" decision in the repo ranks by ascending distance with
  * ties going to the lower id, and selects through [[TopK]] rather than by
  * sorting all candidates.
  */
object VectorMath {

  /** Squared Euclidean distance between two same-length vectors. */
  def sqDist(a: Array[Float], b: Array[Float]): Double = {
    // An explicit throw, not `require`: its by-name message would be a
    // closure on every call of the hottest function in the repo.
    if (a.length != b.length)
      throw new IllegalArgumentException(s"dim mismatch: ${a.length} vs ${b.length}")
    var s = 0.0
    var i = 0
    while (i < a.length) {
      val d = a(i).toDouble - b(i).toDouble // double math: bit-stable vs SQL oracles
      s += d * d
      i += 1
    }
    s
  }

  /** Euclidean distance (sqrt of [[sqDist]]); only for human-facing output. */
  def dist(a: Array[Float], b: Array[Float]): Double = math.sqrt(sqDist(a, b))

  /** Component-wise mean of a non-empty collection of vectors. */
  def mean(vs: Iterable[Array[Float]]): Array[Float] = {
    require(vs.nonEmpty, "mean of empty vector set")
    val dim = vs.head.length
    val acc = new Array[Double](dim)
    var n = 0
    vs.foreach { v =>
      var i = 0
      while (i < dim) { acc(i) += v(i); i += 1 }
      n += 1
    }
    val out = new Array[Float](dim)
    var i = 0
    while (i < dim) { out(i) = (acc(i) / n).toFloat; i += 1 }
    out
  }

  /** Bounded top-`k` accumulator: keeps the `k` best (id, distance) pairs
    * offered so far in primitive arrays, sorted ascending by distance with
    * ties going to the lower id — the order of a full `sortBy((d, id))`.
    *
    * An offer that cannot beat the current k-th entry costs one comparison;
    * one that can costs O(k) to shift it into place. Nothing is allocated
    * per offer. Distances compare as `java.lang.Double.compare` does, like
    * the default `Ordering[Double]`.
    */
  final class TopK(val k: Int) {
    require(k >= 0, s"negative k: $k")
    private var idArr = new Array[Long](math.min(k, 16))
    private var dArr = new Array[Double](math.min(k, 16))
    private var n = 0

    /** Held ids, ascending. */
    def ids: Array[Long] = java.util.Arrays.copyOf(idArr, n)

    /** Held (id, distance) pairs, ascending. */
    def result: IndexedSeq[(Long, Double)] = ArraySeq.tabulate(n)(i => (idArr(i), dArr(i)))

    /** Offer a candidate whose id is not held: callers guarantee distinct ids. */
    def offer(id: Long, d: Double): Unit = if (admits(id, d)) insert(id, d)

    /** Offer a candidate whose id may repeat; the id keeps its smallest
      * distance (replica dedupe). A rejected offer is never needed later:
      * the k-th entry only improves, and a held id's distance only shrinks.
      */
    def offerMin(id: Long, d: Double): Unit = if (admits(id, d)) {
      var j = 0
      while (j < n && idArr(j) != id) j += 1
      if (j == n) insert(id, d)
      else if (java.lang.Double.compare(d, dArr(j)) < 0) {
        System.arraycopy(idArr, j + 1, idArr, j, n - j - 1)
        System.arraycopy(dArr, j + 1, dArr, j, n - j - 1)
        n -= 1
        insert(id, d)
      }
    }

    /** (id, d) ranks ahead of the entry in slot `i`. */
    private def before(id: Long, d: Double, i: Int): Boolean = {
      val c = java.lang.Double.compare(d, dArr(i))
      c < 0 || (c == 0 && id < idArr(i))
    }

    private def admits(id: Long, d: Double): Boolean = n < k || (n > 0 && before(id, d, n - 1))

    /** Shift (id, d) into place, dropping the k-th entry when full. */
    private def insert(id: Long, d: Double): Unit = {
      if (n == idArr.length && n < k) {
        val cap = math.min(k, 2 * n)
        idArr = java.util.Arrays.copyOf(idArr, cap)
        dArr = java.util.Arrays.copyOf(dArr, cap)
      }
      var p = if (n < k) n else n - 1
      while (p > 0 && before(id, d, p - 1)) {
        idArr(p) = idArr(p - 1); dArr(p) = dArr(p - 1)
        p -= 1
      }
      idArr(p) = id; dArr(p) = d
      if (n < k) n += 1
    }
  }

  /** The `k` nearest of the first `n` candidates `(ids(i), vecs(i))` to `q`,
    * in one pass: O(n·dim) distance work plus O(n) comparisons while the
    * set is settled. Ids must be distinct. A `k` at or below zero selects
    * nothing.
    */
  def nearestK(q: Array[Float], ids: Array[Long], vecs: Array[Array[Float]], n: Int, k: Int): TopK = {
    val top = new TopK(math.max(0, math.min(k, n)))
    var i = 0
    while (i < n) {
      top.offer(ids(i), sqDist(q, vecs(i)))
      i += 1
    }
    top
  }

  /** Top-`k` (id, sqDist) pairs from scored candidates, ascending distance,
    * deduplicated by id keeping the minimum distance (replica handling).
    */
  def topK(scored: Iterable[(Long, Double)], k: Int): Seq[(Long, Double)] = {
    val top = new TopK(math.max(0, k))
    scored.foreach { case (id, d) => top.offerMin(id, d) }
    top.result
  }
}
