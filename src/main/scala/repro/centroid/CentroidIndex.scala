package repro.centroid

import scala.collection.mutable

import repro.core.VectorMath

/** In-memory index over posting centroids — SPANN keeps an SPTAG graph in
  * DRAM for "quick identification of candidate postings" (§3.1); SPFresh
  * mutates it as splits/merges create and delete centroids (§4.1).
  *
  * Implementations must support concurrent-free single-writer mutation and
  * lock-free reads at the scale used here.
  */
trait CentroidIndex {

  /** Register a new posting centroid. `pid` must be fresh. */
  def insert(pid: Long, centroid: Array[Float]): Unit

  /** Remove a posting centroid (after a split deletes the old posting). */
  def remove(pid: Long): Unit

  /** Centroid of a posting, if it exists. */
  def get(pid: Long): Option[Array[Float]]

  /** The `k` nearest posting ids to `q` with squared distances, ascending.
    * An exact index breaks equal distances toward the lower pid, so its
    * answer is the first `k` of all centroids sorted by (distance, pid).
    */
  def nearest(q: Array[Float], k: Int): Seq[(Long, Double)]

  /** Number of live centroids. */
  def size: Int

  /** All live (pid, centroid) pairs. */
  def all: Iterator[(Long, Array[Float])]

  /** Distance computations performed since construction — the in-memory
    * navigation cost component of the latency model.
    */
  def distanceComputations: Long
}

/** Exact centroid search. At reproduction scale (≲2k centroids) a linear
  * scan is both exact and fast; it plays the role of a perfectly-recalled
  * SPTAG. Distance computations are counted so the latency model still sees
  * the in-memory navigation cost grow with centroid count (§5.3 observes
  * exactly this growth).
  *
  * Centroids live in dense parallel arrays (`pids`, `vecs`) with a
  * pid → slot map; `remove` moves the last slot into the hole. `nearest`
  * is one pass of [[VectorMath.nearestK]]: O(n·dim) distance work plus
  * O(n) comparisons, with no allocation per centroid. Results are ordered
  * by ascending squared distance, ties going to the lower pid.
  */
final class BruteForceCentroidIndex extends CentroidIndex {
  private var pids = new Array[Long](16)
  private var vecs = new Array[Array[Float]](16)
  private var n = 0
  private val slot = mutable.LongMap.empty[Int]
  private var distComps = 0L

  override def insert(pid: Long, centroid: Array[Float]): Unit = {
    require(!slot.contains(pid), s"posting $pid already indexed")
    if (n == pids.length) {
      pids = java.util.Arrays.copyOf(pids, 2 * n)
      vecs = java.util.Arrays.copyOf(vecs, 2 * n)
    }
    pids(n) = pid
    vecs(n) = centroid
    slot.update(pid, n)
    n += 1
  }

  override def remove(pid: Long): Unit = slot.remove(pid).foreach { s =>
    n -= 1
    if (s != n) {
      pids(s) = pids(n)
      vecs(s) = vecs(n)
      slot.update(pids(s), s)
    }
    vecs(n) = null
  }

  override def get(pid: Long): Option[Array[Float]] = slot.get(pid).map(vecs(_))

  override def nearest(q: Array[Float], k: Int): Seq[(Long, Double)] = {
    distComps += n
    VectorMath.nearestK(q, pids, vecs, n, k).result
  }

  override def size: Int = n

  override def all: Iterator[(Long, Array[Float])] = Array.tabulate(n)(i => (pids(i), vecs(i))).iterator

  override def distanceComputations: Long = distComps
}
