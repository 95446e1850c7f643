package repro.core.distributed

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions.{col, count, lit, sum, udf}
import org.scalatest.Assertions._

/** Hand-made lakes, and checks of the lake's driver state against its files. */
object LakeChecks {

  /** Commit hand-made rows to `idx`; a row that is stale by the driver's
    * version map counts in its posting's raw length only.
    */
  def commit(idx: DistIndex, rows: Seq[PostingRow]): Unit =
    idx.commit(rows, TableEdit(staled = rows.filter(r => idx.versions.isStale(r.vid, r.version)).map(_.pid)))

  /** UDF of the lake's liveness test `(vid, version)`, over the index's own
    * snapshot of it.
    */
  def liveUdf(idx: DistIndex): UserDefinedFunction = udf(idx.isLive)

  /** The visible rows `(vid, pid, version, vec)` of the manifest's data
    * files, read with a plain `spark.read.parquet` and filtered here, not by
    * the index's reader: a row is visible iff its posting is in the posting
    * table and it was written at or after the posting's generation.
    */
  def visibleFileRows(idx: DistIndex): DataFrame = {
    val generations = idx.table.iterator.map { case (pid, m) => pid -> m.generation }.toMap
    val visible = udf((pid: Long, seq: Int) => generations.get(pid).exists(seq >= _))
    idx.spark.read.parquet(idx.files.map(f => s"${idx.rootDir}/data/$f"): _*)
      .filter(visible(col("pid"), col("seq"))).select("vid", "pid", "version", "vec")
  }

  /** Raw and live record counts per posting, `pid -> (raw, live)`, from one
    * scan of the lake's files ([[visibleFileRows]]): the ground truth the
    * posting table must equal. A row is live iff its vector's dirty state
    * (`dirtyStates`) is absent and its version 0, or not tombstoned and at
    * the state's version.
    */
  def rawSizesAndLive(idx: DistIndex): Map[Long, (Long, Long)] = {
    val dirty = idx.dirtyStates
    val live = udf((vid: Long, version: Int) => dirty.get(vid) match {
      case None                  => version == 0
      case Some((cur, tombstone)) => !tombstone && version == cur
    })
    visibleFileRows(idx).groupBy("pid").agg(count(lit(1)), sum(live(col("vid"), col("version")).cast("long")))
      .collect().map(r => r.getLong(0) -> ((r.getLong(1), r.getLong(2)))).toMap
  }

  /** The driver's posting table, with the rows of pending deletes and
    * re-inserts settled, equals [[rawSizesAndLive]], a scan of the lake.
    * Postings the table holds with no row are left out of the comparison,
    * as the scan cannot see them; they must have a centroid.
    */
  def tableMatchesScan(idx: DistIndex, when: String): Unit = {
    idx.settle()
    val table = idx.table.iterator.map { case (pid, m) => pid -> ((m.raw, m.live)) }.toMap
    val scanned = rawSizesAndLive(idx)
    assert(table.filter(_._2._1 > 0) == scanned, s"posting table != lake scan $when")
    assert(table.keySet.forall(idx.centroids.get(_).isDefined), s"a posting without a centroid $when")
  }

  /** The lake's data files hold no more hidden rows than visible ones: a
    * commit that leaves more compacts the lake.
    */
  def hiddenWithinVisible(idx: DistIndex): Unit = {
    val stored = idx.spark.read.parquet(idx.files.map(f => s"${idx.rootDir}/data/$f"): _*).count()
    val visible = idx.postings.count()
    assert(stored - visible <= visible, s"$stored rows stored for $visible visible")
  }

  /** Every file under the lake's root is its manifest or a data file the
    * manifest lists: no checksum file beside a data file, and nothing left
    * behind by a staged write.
    */
  def noUnreferencedFiles(idx: DistIndex): Unit = {
    val root = Paths.get(idx.rootDir)
    val s = Files.walk(root)
    val found = try s.iterator().asScala.filter(Files.isRegularFile(_)).map(root.relativize(_).toString).toSet
      finally s.close()
    val listed = idx.files.map(f => s"data/$f").toSet + DistIndex.ManifestName
    assert(found == listed, s"unreferenced: ${found -- listed}, missing: ${listed -- found}")
  }
}
