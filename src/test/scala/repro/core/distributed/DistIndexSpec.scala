package repro.core.distributed

import java.nio.file.Files

import repro.{Oracle, SparkSpec}
import repro.core.{LireConfig, VectorMath}
import repro.data.{GroundTruth, VectorGen}

/** Distributed index: build, batch updates, the search (a driver-side
  * probe and one Spark scan of the probed postings), and DuckDB oracle
  * equivalence of exhaustive search.
  */
class DistIndexSpec extends SparkSpec {
  private val dim = 4
  private val cfg = LireConfig(splitLimit = 32, mergeThreshold = 4, reassignRange = 8,
    searchProbes = 8)

  private def mix(seed: Long = 1) = VectorGen.mixture(dim, 4, seed)

  private def fresh(n: Int, seed: Long = 1): (DistIndex, IndexedSeq[VectorGen.Vec]) = {
    val base = VectorGen.draw(mix(seed), n, 0, seed + 1)
    val root = Files.createTempDirectory("distidx").toString
    val idx = DistIndex.build(spark, root, VectorGen.toDf(spark, base), dim, cfg, seed = seed)
    (idx, base)
  }

  test("build commits a posting lake with every vector present") {
    val (idx, base) = fresh(200)
    val vids = idx.postings.select("vid").distinct().collect().map(_.getLong(0)).toSet
    assert(vids == base.map(_.id).toSet)
  }

  test("reading the lake launches no Spark job (its schema is known)") {
    val (idx, _) = fresh(100)
    val (postings, jobs) = countJobs(idx.postings)
    assert(jobs == 0)
    assert(postings.schema.fieldNames.toSeq == Seq("vid", "pid", "version", "vec"))
  }

  test("past the listing threshold a commit compacts, so reading the lake still launches no job") {
    val (idx, _) = fresh(100)
    val threshold = spark.conf.get("spark.sql.sources.parallelPartitionDiscovery.threshold").toInt
    val ins = VectorGen.draw(mix(), threshold + 2, 10000, seed = 5)
    var compactions = 0
    ins.foreach { v =>
      val before = idx.files.size
      idx.insertBatch(VectorGen.toDf(spark, Seq(v)))
      assert(idx.files.size <= threshold)
      if (idx.files.size < before) compactions += 1
    }
    assert(compactions > 0, "the lake never reached the listing threshold")
    val (postings, jobs) = countJobs(idx.postings)
    assert(jobs == 0)
    assert(postings.select("vid").distinct().count() == 100 + ins.length)
    LakeChecks.tableMatchesScan(idx, "after compaction")
    LakeChecks.noUnreferencedFiles(idx)
  }

  test("a lake read runs as many tasks as Spark's own scan of the manifest's files") {
    val (idx, _) = fresh(200)
    def tasks = idx.visibleRows((_, _, _) => true).getNumPartitions
    def sparkTasks = spark.read.schema(PostingRow.fileSchema)
      .parquet(idx.files.map(f => s"${idx.rootDir}/data/$f"): _*).rdd.getNumPartitions
    assert(tasks == sparkTasks, s"after the build: ${idx.files}")
    // One-vector inserts add a file each, until a commit compacts the lake.
    val more = VectorGen.draw(mix(), 64, 10000, seed = 5).iterator
    while (!idx.files.exists(_.contains("-compact-")) && more.hasNext)
      idx.insertBatch(VectorGen.toDf(spark, Seq(more.next())))
    assert(idx.files.exists(_.contains("-compact-")), s"no compaction: ${idx.files}")
    (0 until 3).foreach(_ => idx.insertBatch(VectorGen.toDf(spark, Seq(more.next()))))
    assert(tasks == sparkTasks, s"after a compaction and three commits: ${idx.files}")
    // With small splits and open costs, files split and tasks pack several.
    val small = Seq("spark.sql.files.maxPartitionBytes" -> "2k", "spark.sql.files.openCostInBytes" -> "512")
    try {
      small.foreach { case (k, v) => spark.conf.set(k, v) }
      idx.insertBatch(VectorGen.toDf(spark, Seq(more.next())))
      assert(tasks == sparkTasks, s"under small splits: ${idx.files}")
      assert(tasks != idx.files.size, "small splits changed no task")
      assert(idx.postings.count() == idx.table.valuesIterator.map(_.raw).sum, "split files lost or repeated rows")
    } finally small.foreach { case (k, _) => spark.conf.unset(k) }
  }

  test("an insertBatch adds one data file, holding exactly the inserted rows") {
    import org.apache.spark.sql.functions.col
    val (idx, _) = fresh(200)
    val before = idx.files
    val ins = VectorGen.draw(mix(), 30, 10000, seed = 5)
    idx.insertBatch(VectorGen.toDf(spark, ins))
    val added = idx.files.diff(before)
    assert(added.size == 1 && idx.files.size == before.size + 1)
    def triples(df: org.apache.spark.sql.DataFrame) = df.select("vid", "pid", "version").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSeq.sorted
    val inFile = triples(spark.read.parquet(s"${idx.rootDir}/data/${added.head}"))
    assert(inFile == triples(idx.postings.filter(col("vid") >= 10000)))
    assert(inFile.map(_._1).distinct == ins.map(_.id).sorted)
  }

  test("an insertBatch runs no Spark job") {
    val (idx, _) = fresh(200)
    val ins = VectorGen.toDf(spark, VectorGen.draw(mix(), 30, 10000, seed = 5))
    val before = idx.files.size
    assert(countJobs(idx.insertBatch(ins))._2 == 0)
    assert(idx.files.size == before + 1, "the insert compacted, which is a Spark job of its own")
  }

  test("committed vectors keep their bits, and their order, in the driver's file and after a compaction") {
    import org.apache.spark.sql.DataFrame
    import org.apache.spark.sql.functions.col
    val idx = new DistIndex(spark, Files.createTempDirectory("bitslake").toString, 2, cfg)
    Seq(Array(0f, 0f), Array(10f, 10f)).foreach(c => idx.centroids.insert(idx.freshPid(), c))
    val subnormal = java.lang.Float.intBitsToFloat(0x00012345)
    val odd = Seq(Array(-0.0f, 0f), Array(Float.MinPositiveValue, -Float.MinPositiveValue),
      Array(subnormal, -0.0f), Array(Float.MaxValue, Float.MinValue), Array(0.1f, -1f / 3))
    val rows = odd.zipWithIndex.map { case (v, i) => PostingRow(i.toLong, 0, 0, v) }
    val padding = (0 until 10).map(i => PostingRow(100L + i, 1, 0, Array(10f, 10f)))
    (rows ++ padding).foreach(r => idx.versions.register(r.vid))
    // Interleaved, so that a writer that reordered the rows would show.
    val committed = padding.take(3) ++ rows ++ padding.drop(3)
    idx.commit(committed)
    def bits(v: Array[Float]) = v.map(java.lang.Float.floatToRawIntBits).toSeq
    def read(df: DataFrame) = df.select("vid", "vec").collect().toSeq
      .map(r => r.getLong(0) -> bits(r.getSeq[Float](1).toArray))
    val expected = committed.map(r => r.vid -> bits(r.vec))
    assert(idx.files.size == 1)
    assert(read(spark.read.parquet(s"${idx.rootDir}/data/${idx.files.head}")) == expected)
    // Dropping posting 1 leaves twice as many hidden rows as visible ones:
    // the commit compacts the lake through Spark.
    idx.centroids.remove(1L)
    idx.commit(Nil, TableEdit(dropped = Set(1L)))
    assert(idx.files.nonEmpty && idx.files.forall(_.contains("-compact-")), idx.files)
    val odds = expected.filter(_._1 < 100).toMap
    assert(read(idx.postings).toMap == odds)
    assert(read(spark.read.schema(PostingRow.fileSchema)
      .parquet(idx.files.map(f => s"${idx.rootDir}/data/$f"): _*).filter(col("vid") < 100)).toMap == odds)
    LakeChecks.noUnreferencedFiles(idx)
  }

  test("the posting table equals a lake scan after build, insert, delete and re-insert") {
    val (idx, base) = fresh(200)
    LakeChecks.tableMatchesScan(idx, "after build")
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(), 60, 10000, seed = 5)))
    LakeChecks.tableMatchesScan(idx, "after insertBatch")
    idx.deleteBatch(base.take(20).map(_.id))
    LakeChecks.tableMatchesScan(idx, "after deleteBatch")
    // Two deleted ids come back, and one live id is inserted again.
    val again = (base.take(2) :+ base(50)).map(v => v.copy(vec = v.vec.map(_ + 0.5f)))
    idx.insertBatch(VectorGen.toDf(spark, again))
    LakeChecks.tableMatchesScan(idx, "after re-inserting known ids")
    assert(countJobs(idx.rawSizes())._2 > 0, "rawSizes must scan the lake")
    assert(shuffleBytesWritten(idx.rawSizes())._2 == 0, "rawSizes must count without a shuffle")
  }

  test("deletes and re-inserts settle the posting table's live counts with no Spark job") {
    val (idx, base) = fresh(200)
    // Two deleted ids come back, one live id is inserted again, and one
    // live id twice in the same batch.
    val moved = (base.take(2) ++ Seq(base(50), base(60), base(60))).zipWithIndex
      .map { case (v, i) => v.copy(vec = v.vec.map(_ + 0.5f + i)) }
    val again = VectorGen.toDf(spark, moved)
    val (_, jobs) = countJobs {
      idx.deleteBatch(base.take(20).map(_.id))
      idx.insertBatch(again)
    }
    assert(jobs == 0)
    val live = idx.table.collect { case (pid, m) if m.raw > 0 => pid -> m.live }.toMap
    assert(live == LakeChecks.rawSizesAndLive(idx).map { case (pid, (_, n)) => pid -> n })
    LakeChecks.tableMatchesScan(idx, "after the deletes and re-inserts")
  }

  test("liveUdf is rebuilt only when the version map changed") {
    import org.apache.spark.sql.functions.col
    val (idx, base) = fresh(100)
    val first = idx.isLive
    assert(idx.isLive eq first, "two calls with no change in between must share one snapshot")
    val victim = base.head.id
    idx.versions.markDeleted(victim)
    val second = idx.isLive
    assert(!(second eq first))
    val live = LakeChecks.liveUdf(idx)
    assert(idx.postings.filter(live(col("vid"), col("version")) && col("vid") === victim).count() == 0)
    assert(idx.dirtyStates.get(victim).contains((0, true)))
  }

  test("build postings respect the split limit (live sizes)") {
    val (idx, _) = fresh(300)
    assert(LakeChecks.rawSizesAndLive(idx).values.forall(_._2 <= cfg.splitLimit))
  }

  test("every vector's primary (nearest) centroid hosts one of its replicas") {
    val (idx, base) = fresh(200)
    val membership = idx.postings.select("vid", "pid").collect()
      .groupBy(_.getLong(0)).view.mapValues(_.map(_.getLong(1)).toSet).toMap
    base.foreach { v =>
      val nearest = idx.centroids.nearest(v.vec, 1).head._1
      assert(membership(v.id).contains(nearest), s"vid ${v.id} missing from nearest posting")
    }
  }

  test("insertBatch closure-assigns new vectors, always including the nearest posting") {
    val (idx, _) = fresh(200)
    val ins = VectorGen.draw(mix(), 30, 10000, seed = 5)
    idx.insertBatch(VectorGen.toDf(spark, ins))
    val got = idx.postings.filter("vid >= 10000").select("vid", "pid").collect()
      .groupBy(_.getLong(0)).view.mapValues(_.map(_.getLong(1)).toSet).toMap
    ins.foreach { v =>
      assert(got(v.id).contains(idx.centroids.nearest(v.vec, 1).head._1))
      assert(got(v.id).size <= cfg.maxReplicas)
    }
  }

  test("deleteBatch hides vectors from search") {
    val (idx, base) = fresh(200)
    val victims = base.take(10).map(_.id)
    idx.deleteBatch(victims)
    import spark.implicits._
    val queries = base.take(10).map(v => (v.id, v.vec)).toDF("qid", "qvec")
    val res = idx.search(queries, k = 5, probes = idx.centroidSnapshot.length)
    val found = res.select("vid").collect().map(_.getLong(0)).toSet
    assert(found.intersect(victims.toSet).isEmpty)
  }

  test("a deleteBatch of an id the lake never held adds no dirty state") {
    val (idx, base) = fresh(100)
    val unknown = base.map(_.id).max + 1000
    val before = idx.dirtyStates
    idx.deleteBatch(Seq(unknown))
    assert(idx.dirtyStates == before && !before.contains(unknown))
    assert(idx.versions.size == base.size)
  }

  test("re-inserting a deleted id does not revive its old rows") {
    import org.apache.spark.sql.functions.col
    val (idx, base) = fresh(200)
    val victim = base.head
    val moved = victim.vec.map(_ + 1f)
    idx.deleteBatch(Seq(victim.id))
    idx.insertBatch(VectorGen.toDf(spark, Seq(VectorGen.Vec(victim.id, moved))))
    val live = idx.postings.filter(LakeChecks.liveUdf(idx)(col("vid"), col("version")))
      .filter(col("vid") === victim.id).select("vec").collect().map(_.getSeq[Float](0))
    assert(live.nonEmpty, "the re-inserted vector must be live")
    assert(live.forall(_ == moved.toSeq), "an old row of the re-inserted id is live again")
    assert(idx.versions.currentVersion(victim.id) == 1)
  }

  test("search recall vs exact ground truth is high") {
    val (idx, base) = fresh(400)
    import spark.implicits._
    val qs = VectorGen.queries(mix(), 20, seed = 7)
    val queries = qs.zipWithIndex.map { case (q, i) => (i.toLong, q) }.toDF("qid", "qvec")
    val res = idx.search(queries, k = 10)
    val got = res.collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2)))
      .groupBy(_._1).view.mapValues(_.sortBy(_._3).map(_._2).toSeq).toMap
    val data = base.map(v => (v.id, v.vec))
    val recalls = qs.zipWithIndex.map { case (q, i) =>
      GroundTruth.recall(got.getOrElse(i.toLong, Seq.empty), GroundTruth.topK(q, data, 10))
    }
    val mean = recalls.sum / recalls.length
    assert(mean >= 0.9, s"distributed search recall too low: $mean")
  }

  test("oracle: exhaustive-probe search equals DuckDB brute-force top-k") {
    val (idx, base) = fresh(80, seed = 3)
    import spark.implicits._
    val qs = VectorGen.queries(mix(3), 5, seed = 11)
    val queries = qs.zipWithIndex.map { case (q, i) => (i.toLong, q) }.toDF("qid", "qvec")
    // Probing every posting makes cluster search exhaustive = brute force.
    val sparkOut = idx.search(queries, k = 5, probes = idx.centroidSnapshot.length)

    val dataFlat = base.map(v =>
      (v.id, v.vec(0).toDouble, v.vec(1).toDouble, v.vec(2).toDouble, v.vec(3).toDouble))
      .toDF("id", "x0", "x1", "x2", "x3")
    val qFlat = qs.zipWithIndex.map { case (q, i) =>
      (i.toLong, q(0).toDouble, q(1).toDouble, q(2).toDouble, q(3).toDouble) }
      .toDF("qid", "q0", "q1", "q2", "q3")
    val sq = (i: Int) => s"(CAST(q.q$i AS DOUBLE)-CAST(d.x$i AS DOUBLE))*(CAST(q.q$i AS DOUBLE)-CAST(d.x$i AS DOUBLE))"
    val sql =
      s"""SELECT qid, vid, rank FROM (
         |  SELECT q.qid AS qid, d.id AS vid,
         |    ROW_NUMBER() OVER (PARTITION BY q.qid
         |      ORDER BY ${sq(0)}+${sq(1)}+${sq(2)}+${sq(3)}, CAST(d.id AS BIGINT)) AS rank
         |  FROM queries q CROSS JOIN data d) t
         |WHERE rank <= 5""".stripMargin
    Oracle.assertEquivalent(sparkOut, sql, "data" -> dataFlat, "queries" -> qFlat)
  }

  /** A hand-made 2-D lake committed in two files, so that one posting's
    * rows span two partitions. Posting 0 (centroid (0, 0)), 1 ((10, 0)),
    * 2 ((0, 10)) and 3 ((100, 100)). Vid 1 is live in postings 0 and 1;
    * vid 2 is live at version 1 in posting 1 at (8, 0), with a stale
    * version-0 replica at (4, 0) in posting 0; vid 3 is tombstoned; vids 4
    * and 5 lie at equal distance from (4, 0); vid 6, the vector nearest to
    * (4, 0), sits in posting 2.
    */
  private def handMadeLake(): DistIndex = {
    val idx = new DistIndex(spark, Files.createTempDirectory("searchlake").toString, 2, cfg)
    Seq(Array(0f, 0f), Array(10f, 0f), Array(0f, 10f), Array(100f, 100f))
      .foreach(c => idx.centroids.insert(idx.freshPid(), c))
    (1L to 9L).foreach(idx.versions.register)
    idx.versions.register(2L) // re-inserted: its version-0 rows are stale
    idx.versions.markDeleted(3L)
    idx.commit(Seq(
      PostingRow(1, 0, 0, Array(5f, 0f)), PostingRow(2, 0, 0, Array(4f, 0f)),
      PostingRow(3, 0, 0, Array(4.5f, 0f)), PostingRow(5, 0, 0, Array(5f, 1f)),
      PostingRow(7, 0, 0, Array(0f, 0f)), PostingRow(8, 2, 0, Array(0f, 9f)),
    ))
    idx.commit(Seq(
      PostingRow(1, 1, 0, Array(5f, 0f)), PostingRow(2, 1, 1, Array(8f, 0f)),
      PostingRow(4, 1, 0, Array(3f, 1f)), PostingRow(6, 2, 0, Array(4f, 0.5f)),
      PostingRow(9, 3, 0, Array(100f, 100f)),
    ))
    idx
  }

  test("search equals a driver-side scan of the probed postings") {
    import spark.implicits._
    val idx = handMadeLake()
    assert(idx.files.size == 2)
    val rows = idx.postings.collect().map(r =>
      (r.getLong(1), r.getLong(0), r.getInt(2), r.getSeq[Float](3).toArray))
    val qs = Seq(Array(4f, 0f), Array(0f, 9f), Array(6f, 0.5f))
    val queries = qs.zipWithIndex.map { case (q, i) => (i.toLong, q) }.toDF("qid", "qvec")
    def expected(q: Array[Float], k: Int, probes: Int): Seq[Long] = {
      val probed = idx.centroids.nearest(q, probes).map(_._1).toSet
      val top = new VectorMath.TopK(k)
      rows.foreach { case (pid, vid, version, vec) =>
        if (probed(pid) && !idx.versions.isStale(vid, version)) top.offerMin(vid, VectorMath.sqDist(q, vec))
      }
      top.ids.toSeq
    }
    for (probes <- Seq(1, 2, 3); k <- Seq(0, 3, 10)) {
      val got = idx.search(queries, k, probes).collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getInt(2)))
      assert(got.map(r => (r._1, r._3)).distinct.length == got.length, "one row per (qid, rank)")
      qs.indices.foreach { i =>
        val ranked = got.filter(_._1 == i).sortBy(_._3)
        assert(ranked.map(_._3).toSeq == (1 to ranked.length), s"ranks of query $i")
        assert(ranked.map(_._2).toSeq == expected(qs(i), k, probes), s"query $i, k $k, probes $probes")
      }
    }
    // Probing postings 0 and 1 from (4, 0): vid 1 once for its two
    // replicas, vid 2 at its live distance 16 (its stale row is at 0),
    // vids 4 and 5 tied at 2 in vid order, vid 7 tied with vid 2, and
    // neither the tombstoned vid 3 nor vid 6 of the unprobed posting 2.
    assert(expected(qs.head, 10, 2) == Seq(1L, 4L, 5L, 2L, 7L))
    assert(expected(qs.head, 3, 2) == Seq(1L, 4L, 5L))
  }

  test("a search launches one Spark job") {
    val (idx, base) = fresh(200)
    import spark.implicits._
    val queries = base.take(20).map(v => (v.id, v.vec)).toDF("qid", "qvec")
    val (rows, jobs) = countJobs(idx.search(queries, k = 10).collect())
    assert(rows.length == 20 * 10)
    assert(jobs == 1)
  }

  test("a search's result is (qid, vid, rank), never null, in query then rank order") {
    import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
    import spark.implicits._
    val (idx, base) = fresh(200)
    val qids = base.take(5).map(_.id).reverse
    val queries = base.take(5).reverse.map(v => (v.id, v.vec)).toDF("qid", "qvec")
    val res = idx.search(queries, k = 4)
    assert(res.schema == StructType(Seq(StructField("qid", LongType, nullable = false),
      StructField("vid", LongType, nullable = false), StructField("rank", IntegerType, nullable = false))))
    val got = res.collect().map(r => (r.getLong(0), r.getLong(1), r.getInt(2))).toSeq
    assert(got.map(r => (r._1, r._3)) == qids.flatMap(q => (1 to 4).map(q -> _)))
    // Each query is a stored vector, so it is its own nearest neighbour.
    assert(got.filter(_._3 == 1).map(_._2) == qids)
  }

  test("lake reads of new pid or vid sets compile no new code") {
    // Only pid sets are left to check: no lake read takes a vid set.
    import org.apache.spark.metrics.source.CodegenMetrics
    import spark.implicits._
    val (idx, base) = fresh(200)
    def compiled = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
    // Two searches whose probes share no posting: the pid sets differ.
    val qs = Seq(base.head.vec, base.maxBy(v => VectorMath.sqDist(v.vec, base.head.vec)).vec)
    def probed(q: Array[Float]) = idx.centroids.nearest(q, 3).map(_._1).toSet
    assert(probed(qs(0)).intersect(probed(qs(1))).isEmpty)
    def search(q: Array[Float]) = idx.search(Seq((0L, q)).toDF("qid", "qvec"), k = 5, probes = 3).collect()
    search(qs(0))
    val beforePids = compiled
    search(qs(1))
    assert(compiled == beforePids, "a search of other postings compiled new code")
  }

  test("oracle: live posting sizes equal a DuckDB group-by") {
    val (idx, _) = fresh(120, seed = 5)
    import spark.implicits._
    val sparkSizes = idx.postings
      .filter(LakeChecks.liveUdf(idx)(org.apache.spark.sql.functions.col("vid"),
        org.apache.spark.sql.functions.col("version")))
      .groupBy("pid").count().withColumnRenamed("count", "n")
    // The oracle's rows come from the lake's files, not from the reader under test.
    val flat = LakeChecks.visibleFileRows(idx).select("vid", "pid", "version").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getInt(2)))
      .toSeq.toDF("vid", "pid", "version")
    // All vectors are fresh (version 0, no deletes): live == all rows.
    val sql = "SELECT pid, COUNT(*) AS n FROM rows GROUP BY pid"
    Oracle.assertEquivalent(sparkSizes, sql, "rows" -> flat)
  }

  test("queryIoBlocks reflects posting growth") {
    val (idx, _) = fresh(300, seed = 7)
    val hot = VectorGen.Mixture(IndexedSeq(mix(7).centers.head), IndexedSeq(1.0), 2.0)
    val q = hot.centers.head
    val before = idx.queryIoBlocks(Seq(q), probes = 4).head
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(hot, 200, 10000, seed = 13)))
    val after = idx.queryIoBlocks(Seq(q), probes = 4).head
    assert(after > before, "hot-region inserts must increase probe cost pre-rebalance")
  }

  test("modelBytes accounts centroids, versions, and mapping") {
    val (idx, _) = fresh(200, seed = 9)
    assert(idx.modelBytes > 0)
    val before = idx.modelBytes
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(9), 100, 20000, seed = 17)))
    assert(idx.modelBytes > before)
  }

  test("commits create immutable new versions") {
    val (idx, _) = fresh(100, seed = 11)
    val c0 = idx.commits
    idx.insertBatch(VectorGen.toDf(spark, VectorGen.draw(mix(11), 10, 30000, seed = 19)))
    assert(idx.commits == c0 + 1)
  }
}
