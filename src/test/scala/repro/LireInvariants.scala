package repro

/** The invariants LIRE keeps after every drain or rebalance, checked the
  * same way on either engine from its live rows:
  *  - no posting holds more live vectors than the split limit;
  *  - nearest partition assignment (NPA): every live vector has a live
  *    replica in its nearest posting;
  *  - no live vector is missing from the index.
  */
object LireInvariants {

  /** @param oversized     live vector count of each posting over the limit
    * @param npaViolations live vectors whose nearest posting holds no live
    *                      replica of them
    * @param missing       live ids with no live replica anywhere
    * @param vectors       distinct live vectors found in the rows
    */
  final case class Report(
      oversized: Map[Long, Int],
      npaViolations: Seq[Long],
      missing: Set[Long],
      vectors: Int,
  )

  /** @param rows       live `(pid, vid, vec)` rows: stale replicas and
    *                   tombstones already dropped
    * @param nearest    the index's nearest posting of a vector
    * @param splitLimit the posting length LIRE splits above
    * @param liveIds    the ids the version map holds live
    */
  def check(
      rows: Seq[(Long, Long, Array[Float])],
      nearest: Array[Float] => Long,
      splitLimit: Int,
      liveIds: Set[Long],
  ): Report = {
    val oversized = rows.groupMapReduce(_._1)(r => Set(r._2))(_ ++ _)
      .view.mapValues(_.size).filter(_._2 > splitLimit).toMap
    val homes = rows.groupMapReduce(_._2)(r => Set(r._1))(_ ++ _)
    val vecs = rows.map(r => r._2 -> r._3).toMap
    val npa = vecs.collect { case (vid, v) if !homes(vid).contains(nearest(v)) => vid }.toSeq.sorted
    Report(oversized, npa, liveIds -- homes.keySet, vecs.size)
  }
}
