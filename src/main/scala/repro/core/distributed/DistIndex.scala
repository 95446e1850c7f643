package repro.core.distributed

import java.nio.file.{Files, Path, Paths, StandardCopyOption}

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.hadoop.conf.Configuration
import org.apache.spark.paths.SparkPath
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.datasources.{FileFormat, FilePartition, FileScanRDD, PartitionedFile}
import org.apache.spark.sql.execution.datasources.parquet.ParquetFileFormat
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}

import repro.centroid.BruteForceCentroidIndex
import repro.cluster.HierarchicalBuild
import repro.core.{Lire, LireConfig, PostingRecord, PostingScan, VectorMath, VersionMap}

/** One on-lake posting tuple — the Parquet mirror of the Block Controller's
  * `<vector id, version, raw vector>` record (§4.3).
  */
final case class PostingRow(vid: Long, pid: Long, version: Int, vec: Array[Float]) extends PostingRecord

object PostingRow {
  val schema: StructType = Encoders.product[PostingRow].schema

  /** The schema of the lake's data files: each row also stores the
    * sequence number of the commit that wrote it.
    */
  private[distributed] val fileSchema: StructType = schema.add("seq", IntegerType, nullable = false)
}

/** One posting's entry in the lake's driver-side posting table, the
  * Parquet twin of the Block Controller's block mapping (§4.3): the commit
  * that last rewrote the posting (its rows written by earlier commits are
  * hidden), and its raw and live row counts.
  */
final case class PostingMeta(generation: Int, raw: Long, live: Long)

/** What one commit does to the posting table besides its rows: `dropped`
  * postings leave it and `rewritten` ones restart at this commit (their
  * older rows are hidden). The commit's rows must hold every vector that
  * has a live row in a hidden posting, as a round's halves, GC'd rows and
  * merged rows do: those vectors' replica links to the hidden postings go.
  */
private[distributed] final case class TableEdit(
    dropped: Set[Long] = Set.empty,
    rewritten: Set[Long] = Set.empty,
)

/** The version map as queries see it, as of change count `mods`: its dirty
  * states and the liveness test over their broadcast.
  */
private final case class LiveView(mods: Long, dirty: Map[Long, (Int, Boolean)], isLive: (Long, Int) => Boolean)

/** The lake as reads see it between two commits: the scan of the
  * manifest's data files, hidden rows included, built from the file list
  * with no query plan, and each pid's generation (`Int.MaxValue` for a pid
  * not in the posting table).
  */
private final case class LakeScan(rows: RDD[InternalRow], generations: Array[Int])

/** The distributed SPFresh index: LIRE over a data lake.
  *
  * This is the calibration hint's target form — "a distributed ANN index
  * with partition-based rebalancing via DataFrame operations, maintaining
  * vector partitions as Parquet files with incremental split/reassign
  * jobs". The mapping from the paper:
  *
  *  - postings → rows of immutable, append-only Parquet files under
  *    `rootDir/data`. A commit writes only its new rows, which the driver
  *    already holds, as one new file that the driver writes itself, with
  *    no Spark job; then a manifest (file list + driver state) that it
  *    renames into place atomically, after the transaction log of Delta
  *    Lake (Armbrust et al., VLDB 2020). Each row stores the commit that
  *    wrote it;
  *  - the Block Controller's block mapping (§4.3) → the driver's posting
  *    table: each posting's *generation* (the commit that last rewrote it)
  *    and its raw and live lengths. A row is visible iff its posting is in
  *    the table and it was written at or after the posting's generation,
  *    so a split, merge or GC rewrite hides the old rows without touching
  *    their files. The table is kept exact by the operations that change
  *    it, so the rebuilder never scans the lake to decide what to split;
  *  - the driver's replica map: for each vector, the postings of its live
  *    visible rows. A delete or re-insert takes its links off their
  *    postings' live counts at once, and a round's reassign pass reads a
  *    would-be mover's replicas from it, so neither reads the lake;
  *  - SPTAG centroid index + version map → driver-resident metadata,
  *    exactly the structures the paper keeps in DRAM (§4.1): the same
  *    [[BruteForceCentroidIndex]] and [[VersionMap]] the single-node engine
  *    uses;
  *  - Updater → [[insertBatch]]/[[deleteBatch]] (micro-batch epochs — the
  *    dataflow form of the paper's online updates, see DESIGN.md);
  *  - Local Rebuilder → [[DistRebalancer]], whose split and merge rounds
  *    read the lake with one Spark job each and decide on the driver;
  *  - Searcher → [[search]]: the driver probes the centroid index, and one
  *    Spark action scans the probed postings with the single-node engine's
  *    [[PostingScan.scan]] into bounded top-k accumulators.
  *
  * Every read of the lake is a plain RDD job of one reader, [[visibleRows]],
  * so no read pays a SQL query's analysis, optimisation and code generation.
  * Its Parquet reader is built once per index, and its scan once per commit
  * straight from the manifest's files, so no commit plans a query either.
  *
  * Stale replicas behave as on SSD: superseded versions stay in the lake
  * until the next split of their posting garbage-collects them; queries
  * filter them through the broadcast version map. Hidden rows stay in
  * their files until a compaction rewrites the visible rows into fresh
  * files, which a commit runs when hidden rows outnumber visible ones or
  * when the file list would pass Spark's parallel-listing threshold; the
  * files the manifest no longer lists are then deleted. Compaction, which
  * rewrites the lake's own rows, is the one write that runs a Spark job.
  */
final class DistIndex private[distributed] (
    val spark: SparkSession,
    val rootDir: String,
    val dim: Int,
    val cfg: LireConfig,
) {
  import spark.implicits._

  private[distributed] val centroids = new BruteForceCentroidIndex
  private[distributed] val versions = new VersionMap
  private[distributed] var nextPid: Long = 0L
  /** The posting table: pid -> generation and raw / live lengths. */
  private[distributed] val table = mutable.LongMap.empty[PostingMeta]
  /** The replica map: vid -> the pids of its live visible rows, one entry
    * per row (a merge can append a vector's row to a posting that holds
    * one already). Each posting's live count in [[table]] is the number of
    * its entries here. A vid with no live row has no key.
    */
  private[distributed] val replicas = mutable.LongMap.empty[Array[Long]]
  private var commitSeq: Int = 0
  /** The lake's data files, relative to [[dataDir]]. */
  private[distributed] var files: Vector[String] = Vector.empty
  private var fileRows: Long = 0L
  /** What reads see since the last commit; null until the first read after it. */
  private var scanned: LakeScan = _
  private var liveCache = LiveView(-1L, null, null)

  private def dataDir: Path = Paths.get(rootDir, "data")
  /** Where Spark writes a compaction's files before they move to [[dataDir]]. */
  private def stagingDir: Path = Paths.get(rootDir, "_staging")

  private[distributed] def freshPid(): Long = { val p = nextPid; nextPid += 1; p }

  /** The visible rows of the lake, `(vid, pid, version, vec)`, as a
    * DataFrame over [[visibleRows]]. Building it launches no Spark job.
    */
  def postings: DataFrame = visibleRows((_, _, _) => true).toDF()

  /** The lake's one reader: the visible rows that `keep(vid, pid, version)`
    * accepts, with no SQL query. A row is visible iff its pid is in the
    * posting table and it was written at or after that pid's generation.
    * Both tests run inside the tasks, and only kept rows become
    * [[PostingRow]]s. `keep` must capture no `DistIndex`, which is not
    * serializable.
    *
    * The scan reads the manifest's data files with their known schema, so
    * no Spark job infers it from the Parquet footers. [[planScan]] builds it
    * at the first read after a commit, with no query plan, and every read
    * until the next one reuses it.
    */
  private[distributed] def visibleRows(keep: (Long, Long, Int) => Boolean): RDD[PostingRow] = {
    if (scanned == null) scanned = planScan()
    val gens = scanned.generations
    val Seq(vidAt, pidAt, versionAt, vecAt, seqAt) =
      Seq("vid", "pid", "version", "vec", "seq").map(PostingRow.fileSchema.fieldIndex)
    // The scan reuses one row object, so each row is tested and copied out
    // before the next is read.
    scanned.rows.mapPartitions { rows =>
      rows.filter { r =>
        val pid = r.getLong(pidAt)
        pid < gens.length && r.getInt(seqAt) >= gens(pid.toInt) && keep(r.getLong(vidAt), pid, r.getInt(versionAt))
      }.map(r => PostingRow(r.getLong(vidAt), r.getLong(pidAt), r.getInt(versionAt), r.getArray(vecAt).toFloatArray()))
    }
  }

  /** The Parquet reader of the lake's data files, with their known schema,
    * built once per index. Its Hadoop configuration is empty, as the
    * writer's ([[LakeFiles]]) is: the lake lives on the local file system,
    * and a file open then copies no default settings.
    */
  private lazy val reader: PartitionedFile => Iterator[InternalRow] =
    new ParquetFileFormat().buildReaderWithPartitionValues(spark, PostingRow.fileSchema, new StructType(),
      PostingRow.fileSchema, Nil, Map(FileFormat.OPTION_RETURNING_BATCH -> "false"), new Configuration(false))

  /** Build the scan of the manifest's data files, and snapshot the posting
    * table's generations. The scan is an RDD of [[reader]] over the files,
    * split and packed into tasks by the rule Spark's file-source planner
    * applies (`FilePartition.maxSplitBytes`, the longest splits first, then
    * `FilePartition.getFilePartitions`), but with no query to analyse,
    * optimise or plan. This and [[reader]] are the one place the lake uses
    * Spark's internal `org.apache.spark.sql.execution.datasources` classes.
    */
  private def planScan(): LakeScan = {
    val gens = Array.fill(nextPid.toInt)(Int.MaxValue)
    table.foreach { case (pid, m) => gens(pid.toInt) = m.generation }
    val sized = files.map { f => val p = dataDir.resolve(f); (p.toString, Files.size(p)) }
    val openCost = spark.sessionState.conf.filesOpenCostInBytes
    val maxSplit = FilePartition.maxSplitBytes(spark, sized.map(_._2 + openCost).sum)
    val splits = sized.flatMap { case (path, size) =>
      (0L until size by maxSplit).map { start =>
        PartitionedFile(InternalRow.empty, SparkPath.fromPathString(path), start, math.min(maxSplit, size - start),
          fileSize = size)
      }
    }.sortBy(-_.length)
    val scan = new FileScanRDD(spark, reader, FilePartition.getFilePartitions(spark, splits, maxSplit),
      PostingRow.fileSchema)
    LakeScan(scan, gens)
  }

  /** Run `body` with `label` as the description of the Spark jobs it
    * launches, then give the caller's description back. The job group
    * stays the caller's.
    */
  private[distributed] def labelled[T](label: String)(body: => T): T = {
    val sc = spark.sparkContext
    val caller = sc.getLocalProperty(DistIndex.JobDescription)
    sc.setJobDescription(label)
    try body finally sc.setLocalProperty(DistIndex.JobDescription, caller)
  }

  /** Commit `rows` as one new data file (`nFiles` contiguous chunks at
    * most) that the driver writes with no Spark job, apply `edit` and the
    * rows to the posting table and the replica map, compact when due, and
    * write the manifest. Every row counts in its posting's raw length; a
    * row the version map holds live at commit time also counts in its live
    * length and links its vector to its posting.
    */
  private[distributed] def commit(rows: Seq[PostingRow], edit: TableEdit = TableEdit(), nFiles: Int = 1): Unit = {
    val seq = commitSeq
    if (rows.nonEmpty) {
      files ++= writeRows(rows, seq, nFiles)
      fileRows += rows.size
    }
    val hidden = edit.dropped ++ edit.rewritten
    if (hidden.nonEmpty) rows.iterator.map(_.vid).distinct.foreach { vid =>
      replicas.get(vid).foreach(ps => setLinks(vid, ps.filterNot(hidden)))
    }
    edit.dropped.foreach(table.remove)
    edit.rewritten.foreach(table(_) = PostingMeta(seq, 0, 0))
    rows.foreach { r =>
      val live = !versions.isStale(r.vid, r.version)
      val m = table.getOrElse(r.pid, PostingMeta(seq, 0, 0))
      table(r.pid) = m.copy(raw = m.raw + 1, live = m.live + (if (live) 1 else 0))
      if (live) setLinks(r.vid, replicas.getOrElse(r.vid, NoLinks) :+ r.pid)
    }
    scanned = null
    val visible = table.valuesIterator.map(_.raw).sum
    val compact = fileRows - visible > visible || files.size > listingThreshold
    if (compact) {
      files = labelled("lake compact")(compactFiles(seq)).toVector
      fileRows = visible
      table.mapValuesInPlace((_, m) => m.copy(generation = seq))
      scanned = null
    }
    commitSeq += 1
    Manifest(commitSeq, dim, cfg, nextPid, fileRows, files, centroids.all.toSeq, table.toSeq,
      dirtyStates).write(Paths.get(rootDir, DistIndex.ManifestName))
    if (compact) vacuum()
  }

  private val NoLinks = Array.empty[Long]

  private def setLinks(vid: Long, pids: Array[Long]): Unit =
    if (pids.isEmpty) replicas.remove(vid) else replicas(vid) = pids

  /** Take every replica link of `vid` off its posting's live count and out
    * of the replica map: its rows stopped being live, by a delete, a
    * re-insert or a move.
    */
  private[distributed] def unlink(vid: Long): Unit =
    replicas.remove(vid).foreach(_.foreach { pid =>
      table.get(pid).foreach(m => table(pid) = m.copy(live = m.live - 1))
    })

  /** The postings of `vid`'s live visible rows, one per row. */
  private[distributed] def links(vid: Long): Seq[Long] = replicas.getOrElse(vid, NoLinks).toSeq

  /** Number of committed index versions so far. */
  def commits: Int = commitSeq

  /** Spark lists more paths than this with a Spark job; the lake keeps its
    * file list within it.
    */
  private def listingThreshold: Int =
    spark.conf.get("spark.sql.sources.parallelPartitionDiscovery.threshold").toInt

  /** Files a build or a compaction writes: one per core, well within the
    * listing threshold.
    */
  private def fanout: Int = math.max(1, math.min(spark.sparkContext.defaultParallelism, listingThreshold / 2))

  /** Write `rows`, in their order and stamped with commit `seq`, on the
    * driver into `nFiles` contiguous chunks at most, one Parquet file each
    * under [[dataDir]], and return the files' names. A file a crashed
    * commit left under the same name is replaced.
    */
  private def writeRows(rows: Seq[PostingRow], seq: Int, nFiles: Int): Seq[String] = {
    Files.createDirectories(dataDir)
    val names = rows.grouped(math.ceil(rows.size.toDouble / nFiles).toInt).zipWithIndex.map { case (chunk, k) =>
      val name = f"$seq%06d-c-$k.parquet"
      LakeFiles.write(dataDir.resolve(name), chunk, seq)
      name
    }.toVector
    sync(names)
    names
  }

  /** Rewrite the visible rows stamped with commit `seq` into at most
    * [[fanout]] Parquet files under [[dataDir]] with one Spark job, and
    * return the files' names.
    */
  private def compactFiles(seq: Int): Seq[String] = {
    val staging = stagingDir.resolve(s"$seq-compact")
    postings.select(col("vid"), col("pid"), col("version"), col("vec"), lit(seq).as("seq"))
      .coalesce(fanout).write.mode("overwrite").parquet(staging.toString)
    Files.createDirectories(dataDir)
    val parts = listDir(staging).filter(_.getFileName.toString.matches("part-.*\\.parquet")).sorted
    val names = parts.zipWithIndex.map { case (p, k) =>
      val name = f"$seq%06d-compact-$k.parquet"
      Files.move(p, dataDir.resolve(name), StandardCopyOption.REPLACE_EXISTING)
      name
    }
    sync(names)
    deleteTree(staging)
    names
  }

  /** Force the data files `names` and then [[dataDir]] to the device, so
    * the manifest that lists them never outlives them in a crash.
    */
  private def sync(names: Seq[String]): Unit = (names.map(dataDir.resolve) :+ dataDir).foreach(LakeFiles.force)

  /** Delete every data file the manifest does not list, and what crashed
    * compactions left in [[stagingDir]].
    */
  private def vacuum(): Unit = {
    val keep = files.toSet
    listDir(dataDir).filterNot(p => keep(p.getFileName.toString)).foreach(Files.delete)
    if (Files.exists(stagingDir)) deleteTree(stagingDir)
  }

  private def listDir(dir: Path): Seq[Path] = {
    val s = Files.list(dir)
    try s.iterator().asScala.toVector finally s.close()
  }

  private def deleteTree(dir: Path): Unit = {
    val s = Files.walk(dir)
    try s.iterator().asScala.toVector.reverse.foreach(Files.delete) finally s.close()
  }

  /** Restore the driver state of `m`. The manifest keeps only the dirty
    * version states; every other vid in the lake is live at version 0. One
    * read of the visible rows finds those vids, and its live rows rebuild
    * the replica map.
    */
  private def restore(m: Manifest): Unit = {
    commitSeq = m.seq
    nextPid = m.nextPid
    files = m.files.toVector
    fileRows = m.fileRows
    m.centroids.foreach { case (pid, c) => centroids.insert(pid, c) }
    table ++= m.table
    val rows = visibleRows((_, _, _) => true).map(r => (r.vid, r.pid, r.version)).collect()
    val clean = rows.iterator.map(_._1).filterNot(m.dirty.contains).map(_ -> ((0, false)))
    versions.restore(m.dirty ++ clean)
    rows.filterNot { case (vid, _, version) => versions.isStale(vid, version) }
      .groupMap(_._1)(_._2).foreach { case (vid, pids) => replicas(vid) = pids }
  }

  // ------------------------------------------------------------ driver views

  /** The live (pid, centroid) pairs. */
  def centroidSnapshot: Array[(Long, Array[Float])] = centroids.all.toArray

  /** A vector's closure posting set ([[Lire.closure]] over its
    * `maxReplicas` nearest centroids).
    */
  private[distributed] def closure(v: Array[Float]): Seq[Long] =
    Lire.closure(centroids.nearest(v, cfg.maxReplicas), cfg.replicaEpsilon)

  /** The version map's dirty states and the one liveness test over their
    * broadcast, rebuilt only when the version map has changed: a stored
    * row is live iff not tombstoned and its on-lake version matches the
    * in-memory one (§4.1 staleness rule).
    */
  private def liveView: LiveView = {
    val mods = versions.modCount
    if (liveCache.mods != mods) {
      val dirty = versions.snapshot().filter { case (_, (v, d)) => v > 0 || d }
      val bc = spark.sparkContext.broadcast(dirty)
      val isLive: (Long, Int) => Boolean = (vid, version) =>
        bc.value.get(vid) match {
          case None                 => version == 0
          case Some((_, true))      => false
          case Some((cur, false))   => version == cur
        }
      liveCache = LiveView(mods, dirty, isLive)
    }
    liveCache
  }

  /** Vector states that differ from the freshly-inserted default — the only
    * part of the version map queries need (kept small for broadcast).
    */
  def dirtyStates: Map[Long, (Int, Boolean)] = liveView.dirty

  /** The lake's liveness test `(vid, version)` (§4.1 staleness rule), one
    * snapshot per version-map change; it captures no `DistIndex`.
    */
  private[distributed] def isLive: (Long, Int) => Boolean = liveView.isLive

  /** Raw on-lake record count per posting, from one scan of the lake: each
    * task counts its rows per posting, and the driver adds the counts up,
    * with no shuffle.
    */
  def rawSizes(): Map[Long, Long] =
    visibleRows((_, _, _) => true).mapPartitions { rows =>
      val n = mutable.LongMap.empty[Long]
      rows.foreach(r => n(r.pid) = n.getOrElse(r.pid, 0L) + 1)
      Iterator(n.toArray)
    }.collect().flatten.groupMapReduce(_._1)(_._2)(_ + _)

  /** Live vector count. */
  def liveCount: Long = versions.liveIds.size.toLong

  // ---------------------------------------------------------------- updater

  /** Batch insert (the Updater, §4.1): assign each new vector to its
    * closure posting set (SPANN's boundary replication — §3.2 inserts
    * "following the original SPANN index design") against the driver's
    * centroid index, and append the rows to the lake as one new file,
    * which the driver writes with no Spark job. Split jobs are picked up by
    * the next [[DistRebalancer.run]].
    */
  def insertBatch(vectors: DataFrame): Unit = {
    require(centroids.size > 0, "insertBatch before build")
    // Register versions on the driver (the in-memory version map). A known
    // id gets a version past its old one ([[VersionMap.register]]), so its
    // rows carry that version and its old rows go stale, unlinked now. An
    // id twice in the batch so commits its first rows stale.
    val rows = vectors.select("id", "vec").collect().toSeq.flatMap { r =>
      val vid = r.getLong(0)
      unlink(vid)
      val version = versions.register(vid)
      val v = r.getSeq[Float](1).toArray
      closure(v).map(PostingRow(vid, _, version, v))
    }
    commit(rows)
  }

  /** Batch delete: tombstones in the driver version map, and the vectors'
    * replica links off their postings' live counts; physical rows are GC'd
    * by later splits (§4.1 deferred deletion).
    */
  def deleteBatch(ids: Seq[Long]): Unit = ids.foreach { vid =>
    unlink(vid)
    versions.markDeleted(vid)
  }

  // --------------------------------------------------------------- searcher

  /** Distributed search, the Searcher of §4.1: the driver probes each
    * query's `probes` nearest postings in the centroid index, and one Spark
    * action reads the probed postings. Each partition groups its rows by
    * posting and runs [[PostingScan.scan]] (stale-replica filter, replica
    * dedupe, bounded top-k) for every query that probes the posting, then
    * emits at most k rows per query; the driver merges them into each
    * query's k nearest, ties going to the lower vid.
    *
    * The merge is exact without a shuffle: the row at a vid's smallest
    * distance sits in some partition, and that partition's top-k for the
    * query holds the vid whenever the global top-k does.
    *
    * @param queries DataFrame (qid BIGINT, qvec ARRAY<FLOAT>)
    * @return DataFrame (qid, vid, rank) with rank 1..k ascending distance
    */
  def search(queries: DataFrame, k: Int, probes: Int = -1): DataFrame = {
    val nProbes = if (probes > 0) probes else cfg.searchProbes
    val qs = queries.select("qid", "qvec").collect().map(r => (r.getLong(0), r.getSeq[Float](1).toArray))
    // pid -> indices of the queries that probe it
    val byPid = if (k <= 0) Map.empty[Long, Seq[Int]]
      else qs.indices.flatMap(i => centroids.nearest(qs(i)._2, nProbes).map(_._1 -> i)).groupMap(_._1)(_._2)
    val top = Array.fill(qs.length)(new VectorMath.TopK(math.max(0, k)))
    if (byPid.nonEmpty) {
      val qvecs = qs.map(_._2)
      val live = isLive
      labelled("lake search")(visibleRows((_, pid, _) => byPid.contains(pid))
        .mapPartitions { rows =>
          val posting = mutable.LongMap.empty[mutable.ArrayBuffer[PostingRow]]
          rows.foreach(r => posting.getOrElseUpdate(r.pid, mutable.ArrayBuffer.empty) += r)
          val part = new Array[VectorMath.TopK](qvecs.length)
          posting.foreach { case (pid, recs) =>
            byPid(pid).foreach { i =>
              if (part(i) == null) part(i) = new VectorMath.TopK(k)
              PostingScan.scan(qvecs(i), recs.iterator, live, part(i))
            }
          }
          part.indices.iterator.filter(part(_) != null)
            .flatMap(i => part(i).result.iterator.map { case (vid, d) => (i, vid, d) })
        }
        .collect())
        .foreach { case (i, vid, d) => top(i).offerMin(vid, d) }
    }
    val rows = qs.indices.flatMap(i => top(i).ids.zipWithIndex.map { case (vid, r) => Row(qs(i)._1, vid, r + 1) })
    spark.createDataFrame(rows.asJava, DistIndex.SearchSchema)
  }

  /** Records packed per simulated block, scaled so that a posting at the
    * split limit spans the paper's "three to four SSD blocks" (§4.3) — at
    * reproduction-scale split limits a literal 4 KiB block would hold whole
    * postings and hide every I/O-shape signal.
    */
  def recordsPerBlock: Int = math.max(1, math.round(cfg.splitLimit / 3.5f))

  /** Modelled per-query I/O cost in block reads (the IOPS/latency proxy):
    * the posting table's raw lengths of the probed postings at
    * [[recordsPerBlock]] packing density.
    */
  def queryIoBlocks(queries: Seq[Array[Float]], probes: Int = -1): Seq[Long] = {
    val nProbes = if (probes > 0) probes else cfg.searchProbes
    val vpb = recordsPerBlock
    queries.map { q =>
      centroids.nearest(q, nProbes).map { case (pid, _) =>
        math.ceil(table.get(pid).fold(0L)(_.raw).toDouble / vpb).toLong
      }.sum
    }
  }

  /** Modelled driver memory (bytes) of the structures the paper keeps in
    * DRAM, with the block mapping sized from the posting table.
    */
  def modelBytes: Long = {
    val vpb = recordsPerBlock
    val blocksPerPosting = table.valuesIterator
      .map(m => math.ceil(m.raw.toDouble / vpb).toInt).toSeq
    repro.metrics.ResourceModel.clusterIndexBytes(
      centroids.size.toLong, dim, versions.size.toLong, blocksPerPosting)
  }
}

object DistIndex {

  /** The local property behind `SparkContext.setJobDescription`. */
  private val JobDescription = "spark.job.description"

  /** The manifest's file name under `rootDir`. */
  private[distributed] val ManifestName = "_manifest"

  /** The schema of [[DistIndex.search]]'s result. */
  private val SearchSchema = StructType(Seq(
    StructField("qid", LongType, nullable = false),
    StructField("vid", LongType, nullable = false),
    StructField("rank", IntegerType, nullable = false)))

  /** Initial balanced build (SPANN §3.1 as a lake job): centroids come from
    * hierarchical balanced clustering on the driver (the paper builds them
    * centrally too — they are the in-DRAM metadata), and so does every
    * vector's closure-replica assignment; the driver writes the rows in
    * one file per core, with no Spark job.
    *
    * @param vectors DataFrame (id BIGINT, vec ARRAY<FLOAT>)
    */
  def build(
      spark: SparkSession,
      rootDir: String,
      vectors: DataFrame,
      dim: Int,
      cfg: LireConfig = LireConfig(),
      seed: Long = 0,
  ): DistIndex = {
    val idx = new DistIndex(spark, rootDir, dim, cfg)
    val local = vectors.select("id", "vec").collect()
      .map(r => (r.getLong(0), r.getSeq[Float](1).toArray))
    // The engine's build (HierarchicalBuild.forSplitLimit); the post-build
    // rebalance splits any stragglers so the index starts LIRE-compliant.
    val layout = HierarchicalBuild.forSplitLimit(local.map(_._2).toIndexedSeq, cfg, seed)
    layout.centroids.foreach(c => idx.centroids.insert(idx.freshPid(), c))
    local.foreach { case (vid, _) => idx.versions.register(vid) }

    // One row per (vector, member posting); the layout's parts are the pids 0, 1, … in order.
    val rows = local.toSeq.zip(layout.memberships).flatMap { case ((vid, v), ps) => ps.map(PostingRow(vid, _, 0, v)) }
    idx.commit(rows, nFiles = idx.fanout)
    new DistRebalancer(idx).run()
    idx
  }

  /** Reopen the index last committed under `rootDir` from its manifest.
    * Data files the manifest does not list, such as those of a commit that
    * crashed before its manifest rename, are ignored.
    */
  def open(spark: SparkSession, rootDir: String): DistIndex = {
    val m = Manifest.read(Paths.get(rootDir, ManifestName))
    val idx = new DistIndex(spark, rootDir, m.dim, m.cfg)
    idx.restore(m)
    idx
  }
}
