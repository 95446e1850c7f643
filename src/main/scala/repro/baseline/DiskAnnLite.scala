package repro.baseline

import scala.collection.mutable

import repro.core.VectorMath

/** DiskANN/FreshDiskANN-style baseline (§5.1): a Vamana graph index with
  * out-of-place fresh updates and a periodic `streamingMerge` global
  * rebuild.
  *
  * Faithful structure:
  *  - build: iterative greedy-search + α-robust-prune graph construction
  *    (degree `r`, build beam `lBuild`, α = 1.2);
  *  - search: best-first beam from the medoid; every expanded node is one
  *    disk block read (adjacency list + raw vector live on SSD in DiskANN);
  *  - insert: out-of-place into a secondary in-memory buffer, searched by
  *    brute force alongside the graph (the LSM-style read penalty);
  *  - delete: tombstone, filtered from results;
  *  - [[streamingMerge]]: global rebuild over live vectors that folds the
  *    delta in and drops tombstones — the expensive operation Table 1 and
  *    the Fig 7 latency spikes come from.
  */
final class DiskAnnLite(
    val dim: Int,
    r: Int = 32,
    lBuild: Int = 64,
    alpha: Double = 1.2,
    seed: Long = 0,
) {
  private val vecs = mutable.LongMap.empty[Array[Float]]
  private val graph = mutable.LongMap.empty[mutable.ArrayBuffer[Long]]
  private val deleted = mutable.Set.empty[Long]
  // Secondary out-of-place index for fresh inserts (brute-force scanned).
  private val delta = mutable.LongMap.empty[Array[Float]]
  private var medoid: Option[Long] = None
  private val rnd = new scala.util.Random(seed)

  /** Cumulative merge wall-clock, the Table 1 rebuild-cost measurement. */
  var totalMergeMillis: Long = 0
  var mergeCount: Long = 0

  def graphSize: Int = vecs.size
  def deltaSize: Int = delta.size

  /** Build the graph over `points` from scratch (also the merge core). */
  def build(points: Seq[(Long, Array[Float])]): Unit = {
    vecs.clear(); graph.clear(); deleted.clear(); delta.clear()
    points.foreach { case (id, v) => vecs.update(id, v); graph.update(id, mutable.ArrayBuffer.empty) }
    if (points.isEmpty) { medoid = None; return }
    medoid = Some(computeMedoid())
    val order = rnd.shuffle(points.map(_._1).toIndexedSeq)
    order.foreach(id => insertIntoGraph(id, vecs(id)))
  }

  private def computeMedoid(): Long = {
    val c = VectorMath.mean(vecs.values.toSeq)
    vecs.iterator.minBy { case (_, v) => VectorMath.sqDist(c, v) }._1
  }

  /** Greedy beam search over the graph. Returns (results, nodesExpanded) —
    * nodesExpanded is the disk-read count of the query.
    */
  private def greedy(q: Array[Float], k: Int, beam: Int): (Seq[(Long, Double)], Int) =
    medoid match {
      case None => (Seq.empty, 0)
      case Some(m) =>
        val start = if (vecs.contains(m)) m else vecs.keysIterator.next()
        val visited = mutable.Set(start)
        var expanded = 0
        val cand = mutable.PriorityQueue((VectorMath.sqDist(q, vecs(start)), start))(Ordering.by(x => -x._1))
        val res = mutable.PriorityQueue((VectorMath.sqDist(q, vecs(start)), start))(Ordering.by(_._1))
        while (cand.nonEmpty) {
          val (cd, c) = cand.dequeue()
          if (res.size >= beam && cd > res.head._1) cand.clear()
          else {
            expanded += 1
            graph.getOrElse(c, mutable.ArrayBuffer.empty).foreach { n =>
              if (!visited(n) && vecs.contains(n)) {
                visited += n
                val nd = VectorMath.sqDist(q, vecs(n))
                if (res.size < beam || nd < res.head._1) {
                  cand.enqueue((nd, n))
                  res.enqueue((nd, n))
                  if (res.size > beam) res.dequeue()
                }
              }
            }
          }
        }
        (res.toSeq.sortBy { case (d, id) => (d, id) }.map { case (d, id) => (id, d) }.take(k), expanded)
    }

  /** Vamana robust prune: keep up to `r` diverse near neighbors. */
  private def robustPrune(id: Long, pool: Seq[Long]): mutable.ArrayBuffer[Long] = {
    val v = vecs(id)
    val cand = pool.distinct.filter(p => p != id && vecs.contains(p))
      .sortBy(p => VectorMath.sqDist(v, vecs(p)))
    val out = mutable.ArrayBuffer.empty[Long]
    cand.foreach { p =>
      if (out.length < r) {
        val dp = VectorMath.sqDist(v, vecs(p))
        val dominated = out.exists(o => alpha * alpha * VectorMath.sqDist(vecs(o), vecs(p)) <= dp)
        if (!dominated) out += p
      }
    }
    out
  }

  private def insertIntoGraph(id: Long, v: Array[Float]): Unit = {
    val (near, _) = greedy(v, lBuild, lBuild)
    val pruned = robustPrune(id, near.map(_._1))
    graph.update(id, pruned)
    pruned.foreach { n =>
      val back = graph(n)
      if (!back.contains(id)) {
        back += id
        if (back.length > r) {
          val repl = robustPrune(n, back.toSeq)
          graph.update(n, repl)
        }
      }
    }
  }

  /** Fresh insert (out-of-place): goes to the secondary in-memory index.
    * Cost model: FreshDiskANN still performs a graph search to position the
    * point, so we charge one greedy search of disk reads.
    *
    * @return simulated disk reads for the insert
    */
  def insert(id: Long, v: Array[Float]): Int = {
    val (_, expanded) = greedy(v, 1, lBuild)
    delta.update(id, v)
    deleted -= id
    expanded
  }

  /** Tombstone delete. */
  def delete(id: Long): Unit = deleted += id

  /** Search main graph + delta buffer, drop tombstones.
    *
    * @return (ids, diskReads) — delta scan is in-memory, zero disk reads
    */
  def search(q: Array[Float], k: Int, beam: Int = 40): (Seq[Long], Int) = {
    val (gRes, expanded) = greedy(q, math.min(beam, k + beam), beam)
    val dRes = delta.iterator.map { case (id, v) => (id, VectorMath.sqDist(q, v)) }
    val merged = (gRes.iterator ++ dRes)
      .filter { case (id, _) => !deleted(id) }
      .toSeq
    (VectorMath.topK(merged, k).map(_._1), expanded)
  }

  /** Global rebuild folding the delta in and dropping tombstones — the
    * paper's streamingMerge. Measured: this is the Table 1 rebuild cost.
    *
    * @return wall-clock milliseconds of the rebuild
    */
  def streamingMerge(): Long = {
    val t0 = System.nanoTime()
    val live = (vecs.iterator ++ delta.iterator)
      .filter { case (id, _) => !deleted(id) }
      .toMap.toSeq
    build(live)
    val ms = (System.nanoTime() - t0) / 1000000
    totalMergeMillis += ms
    mergeCount += 1
    ms
  }

  /** Resident memory model per [[repro.metrics.ResourceModel.diskAnnBytes]]. */
  def modelBytes(merging: Boolean): Long =
    repro.metrics.ResourceModel.diskAnnBytes(vecs.size.toLong, dim, r, delta.size.toLong, merging)
}
