package repro.core

/** One stored posting record, `<vector id, version, raw vector>` (§4.3):
  * the fields the searcher reads, shared by the engine's block records and
  * the lake's Parquet rows.
  */
trait PostingRecord {
  def vid: Long
  def version: Int
  def vec: Array[Float]
}

/** The Searcher's scan of one posting (§4.1), the one both engines run. */
object PostingScan {

  /** Scan `records` for query `q`: each record gets one liveness test
    * (`live(vid, version)`, the version map's staleness rule), and each
    * live one costs one [[VectorMath.sqDist]] and one
    * [[VectorMath.TopK.offerMin]] into `top`, which keeps every id's
    * smallest distance (replica dedupe). Returns the number of live
    * records, the posting's live length.
    */
  def scan(q: Array[Float], records: Iterator[PostingRecord], live: (Long, Int) => Boolean,
           top: VectorMath.TopK): Int = {
    var n = 0
    while (records.hasNext) {
      val r = records.next()
      if (live(r.vid, r.version)) {
        n += 1
        top.offerMin(r.vid, VectorMath.sqDist(q, r.vec))
      }
    }
    n
  }
}
