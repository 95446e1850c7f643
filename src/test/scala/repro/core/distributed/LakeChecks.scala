package repro.core.distributed

import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.functions.{col, count, lit, sum}
import org.scalatest.Assertions._

/** Hand-made lakes, and checks of the lake's driver state against its files. */
object LakeChecks {

  /** Commit hand-made rows to `idx`; a row that is stale by the driver's
    * version map counts in its posting's raw length only.
    */
  def commit(idx: DistIndex, rows: Seq[PostingRow]): Unit =
    idx.commit(rows, TableEdit(staled = rows.filter(r => idx.versions.isStale(r.vid, r.version)).map(_.pid)))

  /** Raw and live record counts per posting, `pid -> (raw, live)`, from one
    * scan of the lake: the ground truth the posting table must equal.
    */
  def rawSizesAndLive(idx: DistIndex): Map[Long, (Long, Long)] = {
    val live = idx.liveUdf(col("vid"), col("version"))
    idx.postings.groupBy("pid").agg(count(lit(1)), sum(live.cast("long")))
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
