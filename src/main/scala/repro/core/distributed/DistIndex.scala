package repro.core.distributed

import org.apache.spark.sql.{DataFrame, Encoders, SparkSession}
import org.apache.spark.sql.expressions.UserDefinedFunction
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType

import repro.centroid.BruteForceCentroidIndex
import repro.cluster.HierarchicalBuild
import repro.core.{Lire, LireConfig, VectorMath, VersionMap}

/** One on-lake posting tuple — the Parquet mirror of the Block Controller's
  * `<vector id, version, raw vector>` record (§4.3).
  */
final case class PostingRow(vid: Long, pid: Long, version: Int, vec: Array[Float])

object PostingRow {
  val schema: StructType = Encoders.product[PostingRow].schema
}

/** The distributed SPFresh index: LIRE over a data lake.
  *
  * This is the calibration hint's target form — "a distributed ANN index
  * with partition-based rebalancing via DataFrame operations, maintaining
  * vector partitions as Parquet files with incremental split/reassign
  * jobs". The mapping from the paper:
  *
  *  - postings → rows of an immutable Parquet dataset under `rootDir`;
  *    every update/rebalance epoch commits a new version directory
  *    (copy-on-write, like the Block Controller's append-only blocks);
  *  - SPTAG centroid index + version map → driver-resident metadata,
  *    exactly the structures the paper keeps in DRAM (§4.1): the same
  *    [[BruteForceCentroidIndex]] and [[VersionMap]] the single-node engine
  *    uses;
  *  - Updater → [[insertBatch]]/[[deleteBatch]] (micro-batch epochs — the
  *    dataflow form of the paper's online updates, see DESIGN.md);
  *  - Local Rebuilder → [[DistRebalancer]], whose split/merge/reassign
  *    rounds are Catalyst jobs;
  *  - Searcher → [[search]], a broadcast-probe / join / window top-k
  *    pipeline.
  *
  * Stale replicas behave as on SSD: superseded versions stay in the lake
  * until the next split of their posting garbage-collects them; queries
  * filter them through the broadcast version map.
  */
final class DistIndex private[distributed] (
    val spark: SparkSession,
    val rootDir: String,
    val dim: Int,
    val cfg: LireConfig,
) {
  private[distributed] val centroids = new BruteForceCentroidIndex
  private[distributed] val versions = new VersionMap
  private[distributed] var nextPid: Long = 0L
  private var commitSeq: Int = 0
  private var currentPath: String = _

  private[distributed] def freshPid(): Long = { val p = nextPid; nextPid += 1; p }

  /** The current committed posting dataset, read with its known schema:
    * no Spark job infers it from the Parquet footers.
    */
  def postings: DataFrame = spark.read.schema(PostingRow.schema).parquet(currentPath)

  /** Commit a new index version (immutable Parquet directory + pointer). */
  private[distributed] def commit(df: DataFrame): Unit = {
    val path = s"$rootDir/postings_v$commitSeq"
    commitSeq += 1
    df.select(col("vid"), col("pid"), col("version"), col("vec"))
      .write.mode("overwrite").parquet(path)
    currentPath = path
  }

  /** Number of committed index versions so far. */
  def commits: Int = commitSeq

  // ------------------------------------------------------------ driver views

  /** The live (pid, centroid) pairs. */
  def centroidSnapshot: Array[(Long, Array[Float])] = centroids.all.toArray

  /** Driver-side nearest-centroid search (the SPTAG role). */
  def nearestPids(v: Array[Float], k: Int): Seq[Long] = centroids.nearest(v, k).map(_._1)

  /** UDF: a vector's closure posting set ([[Lire.closure]] over its
    * `maxReplicas` nearest centroids), against a broadcast of the current
    * centroids.
    */
  private def closureUdf: UserDefinedFunction = {
    val bc = spark.sparkContext.broadcast(centroids.arrays)
    val eps = cfg.replicaEpsilon
    val maxRep = cfg.maxReplicas
    udf { (vec: Seq[Float]) =>
      val (pids, vecs) = bc.value
      Lire.closure(VectorMath.nearestK(vec.toArray, pids, vecs, pids.length, maxRep).result, eps)
    }
  }

  /** Vector states that differ from the freshly-inserted default — the only
    * part of the version map queries need (kept small for broadcast).
    */
  def dirtyStates: Map[Long, (Int, Boolean)] =
    versions.snapshot().filter { case (_, (v, d)) => v > 0 || d }

  /** UDF: a stored row is live iff not tombstoned and its on-lake version
    * matches the in-memory one (§4.1 staleness rule).
    */
  def liveUdf: UserDefinedFunction = {
    val bc = spark.sparkContext.broadcast(dirtyStates)
    udf { (vid: Long, version: Int) =>
      bc.value.get(vid) match {
        case None                 => version == 0
        case Some((_, true))      => false
        case Some((cur, false))   => version == cur
      }
    }
  }

  /** Raw and live record counts per posting, `pid -> (raw, live)`, from one
    * scan of the lake: the raw count is the split trigger, the live count
    * (stale replicas and tombstones out) the merge trigger.
    */
  def rawSizesAndLive(): Map[Long, (Long, Long)] = {
    val live = liveUdf(col("vid"), col("version"))
    postings.groupBy("pid").agg(count(lit(1)), sum(live.cast("long")))
      .collect().map(r => r.getLong(0) -> ((r.getLong(1), r.getLong(2)))).toMap
  }

  /** Raw on-lake record count per posting (split trigger, like the block
    * mapping's length field).
    */
  def rawSizes(): Map[Long, Long] =
    postings.groupBy("pid").count()
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  /** Live vector count. */
  def liveCount: Long = versions.liveIds.size.toLong

  // ---------------------------------------------------------------- updater

  /** Batch insert (the Updater, §4.1): assign each new vector to its
    * closure posting set (SPANN's boundary replication — §3.2 inserts
    * "following the original SPANN index design") via a broadcast-centroid
    * Catalyst job and append the rows to the lake. Split jobs are picked up
    * by the next [[DistRebalancer.run]].
    */
  def insertBatch(vectors: DataFrame): Unit = {
    require(centroids.size > 0, "insertBatch before build")
    // Register versions on the driver (the in-memory version map). A known
    // id gets a version past its old one ([[VersionMap.register]]), so its
    // rows carry that version and its old rows stay stale.
    val reused = vectors.select("id").collect().flatMap { r =>
      val vid = r.getLong(0)
      val version = versions.register(vid)
      if (version == 0) None else Some(vid -> version)
    }.toMap
    val version = if (reused.isEmpty) lit(0) else coalesce(element_at(typedLit(reused), col("id")), lit(0))
    val assigned = vectors.select(
      col("id").as("vid"),
      explode(closureUdf(col("vec"))).as("pid"),
      version.as("version"),
      col("vec"),
    )
    commit(postings.unionByName(assigned))
  }

  /** Batch delete: tombstones in the driver version map; physical rows are
    * GC'd by later splits (§4.1 deferred deletion).
    */
  def deleteBatch(ids: Seq[Long]): Unit = ids.foreach(versions.markDeleted)

  // --------------------------------------------------------------- searcher

  /** Distributed search: for each query, probe the nearest `probes`
    * postings, scan them, drop stale/tombstoned rows, dedupe replicas, and
    * keep the k nearest — entirely in Catalyst (explode → join → groupBy →
    * window).
    *
    * @param queries DataFrame (qid BIGINT, qvec ARRAY<FLOAT>)
    * @return DataFrame (qid, vid, rank) with rank 1..k ascending distance
    */
  def search(queries: DataFrame, k: Int, probes: Int = -1): DataFrame = {
    val nProbes = if (probes > 0) probes else cfg.searchProbes
    val bc = spark.sparkContext.broadcast(centroids.arrays)
    val probeUdf = udf { (qvec: Seq[Float]) =>
      val (pids, vecs) = bc.value
      VectorMath.nearestK(qvec.toArray, pids, vecs, pids.length, nProbes).ids
    }
    val probed = queries
      .withColumn("pid", explode(probeUdf(col("qvec"))))
    val w = org.apache.spark.sql.expressions.Window
      .partitionBy("qid").orderBy(col("d").asc, col("vid").asc)
    probed
      .join(postings, Seq("pid"))
      .filter(liveUdf(col("vid"), col("version")))
      .withColumn("dRaw", DistIndex.sqDistUdf(col("qvec"), col("vec")))
      .groupBy(col("qid"), col("vid")).agg(min(col("dRaw")).as("d")) // replica dedupe
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") <= k)
      .select(col("qid"), col("vid"), col("rank"))
  }

  /** Records packed per simulated block, scaled so that a posting at the
    * split limit spans the paper's "three to four SSD blocks" (§4.3) — at
    * reproduction-scale split limits a literal 4 KiB block would hold whole
    * postings and hide every I/O-shape signal.
    */
  def recordsPerBlock: Int = math.max(1, math.round(cfg.splitLimit / 3.5f))

  /** Per-query I/O cost in block reads (the IOPS/latency proxy): raw sizes
    * of the probed postings at [[recordsPerBlock]] packing density.
    */
  def queryIoBlocks(queries: Seq[Array[Float]], probes: Int = -1): Seq[Long] = {
    val nProbes = if (probes > 0) probes else cfg.searchProbes
    val raw = rawSizes()
    val vpb = recordsPerBlock
    queries.map { q =>
      nearestPids(q, nProbes).map { pid =>
        math.ceil(raw.getOrElse(pid, 0L).toDouble / vpb).toLong
      }.sum
    }
  }

  /** Driver memory model (bytes) of the structures the paper keeps in DRAM. */
  def modelBytes: Long = {
    val vpb = recordsPerBlock
    val blocksPerPosting = rawSizes().valuesIterator
      .map(n => math.ceil(n.toDouble / vpb).toInt).toSeq
    repro.metrics.ResourceModel.clusterIndexBytes(
      centroids.size.toLong, dim, versions.size.toLong, blocksPerPosting)
  }
}

object DistIndex {

  /** UDF: [[VectorMath.sqDist]] over two array columns, the one distance
    * the lake's search and [[repro.data.GroundTruth.topKDf]] compute. Its
    * double arithmetic matches the SQL oracles of the tests bit for bit.
    */
  val sqDistUdf: UserDefinedFunction =
    udf((a: Seq[Float], b: Seq[Float]) => VectorMath.sqDist(a.toArray, b.toArray))

  /** Initial balanced build (SPANN §3.1 as a lake job): centroids come from
    * hierarchical balanced clustering on the driver (the paper builds them
    * centrally too — they are the in-DRAM metadata); the closure-replica
    * assignment of every vector is a broadcast+explode Catalyst job.
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

    // Replica assignment as a Catalyst job: broadcast centroids, emit one
    // row per (vector, member posting).
    val rows = vectors.select(
      col("id").as("vid"),
      explode(idx.closureUdf(col("vec"))).as("pid"),
      lit(0).as("version"),
      col("vec"),
    )
    idx.commit(rows)
    new DistRebalancer(idx).run()
    idx
  }
}
