package repro.core.engine

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

import repro.centroid.{BruteForceCentroidIndex, CentroidIndex}
import repro.cluster.{HierarchicalBuild, PostingSplit}
import repro.core.{Lire, LireConfig, PostingScan, Reassign, Rebuilder, VectorMath, VersionMap}
import repro.storage.{BlockController, IoDelta, VectorRecord}

/** Counters the benches report; they map to the paper's §5.2 observations
  * ("only 0.4% of insertions cause rebalancing … on average 5094 vectors
  * evaluated, 79 reassigned").
  */
final class EngineStats {
  var inserts: Long = 0
  var deletes: Long = 0
  var splitJobs: Long = 0
  var splitsExecuted: Long = 0
  var gcOnlySplits: Long = 0
  var merges: Long = 0
  var reassignChecked: Long = 0
  var reassignExecuted: Long = 0
  var reassignAborted: Long = 0
  var cascadeSplits: Long = 0

  override def toString: String =
    f"inserts=$inserts deletes=$deletes splitJobs=$splitJobs splits=$splitsExecuted " +
      f"gcOnly=$gcOnlySplits merges=$merges reassignChecked=$reassignChecked " +
      f"reassignExecuted=$reassignExecuted aborted=$reassignAborted cascades=$cascadeSplits"
}

/** Cost of one foreground operation, for the latency model. */
final case class OpCost(io: IoDelta, distComps: Long)

/** Result of one search: live ids (ascending distance), and its cost. */
final case class SearchResult(ids: Seq[Long], cost: OpCost)

/** The single-node SPFresh system (§4): foreground Updater + background
  * Local Rebuilder implementing LIRE over a [[BlockController]] and an
  * in-memory [[CentroidIndex]].
  *
  * The paper runs the Rebuilder on background threads; here jobs queue up
  * and [[drainJobs]] runs them deterministically (the feed-forward pipeline
  * with an explicit clock). A split job is the lake's split batch
  * ([[Rebuilder.splitBatch]]) run on one posting, a merge job its merge
  * batch ([[Rebuilder.mergeBatch]]). A split or merge queues one reassign
  * job, the [[Reassign.pass]] over its candidates. Setting
  * `rebalanceEnabled = false` turns the engine into the paper's SPANN+
  * baseline: appends happen, split/merge/reassign never do.
  */
final class SpFreshEngine(
    val dim: Int,
    val cfg: LireConfig = LireConfig(),
    val centroids: CentroidIndex = new BruteForceCentroidIndex,
    val rebalanceEnabled: Boolean = true,
    seed: Long = 0,
    attachedStore: Option[BlockController] = None,
    val reassignEnabled: Boolean = true,
) {
  /** The "device": fresh by default; crash recovery attaches a new engine
    * to the block controller that survived the crash (§4.4).
    */
  val store: BlockController = attachedStore.getOrElse(new BlockController(dim))
  val versions = new VersionMap
  val stats = new EngineStats

  import SpFreshEngine._

  private val jobs = mutable.Queue.empty[Job]
  // Dedupe sets: re-enqueueing a split for a posting that already has one
  // pending (every append past the limit would) or a reassign check of the
  // same (vid, version) (overlapping splits flag the same candidates) only
  // wastes Rebuilder cycles — the first queued job handles it.
  private val pendingSplits = mutable.Set.empty[Long]
  private val pendingReassigns = mutable.Set.empty[(Long, Int)]
  private var nextPid = 0L
  private val rnd = new scala.util.Random(seed)
  /** The §4.1 staleness rule as the searcher's liveness test. */
  private val isLive: (Long, Int) => Boolean = (vid, version) => !versions.isStale(vid, version)

  /** Queued background jobs awaiting [[drainJobs]]. */
  def pendingJobs: Int = jobs.size

  private def enqueueSplit(pid: Long): Boolean =
    if (pendingSplits.add(pid)) { stats.splitJobs += 1; jobs.enqueue(SplitJob(pid)); true }
    else false

  private val pendingMerges = mutable.Set.empty[Long]

  private def enqueueMerge(pid: Long): Unit =
    if (pendingMerges.add(pid)) jobs.enqueue(MergeJob(pid))

  /** One reassign job per split or merge event, over its candidates that
    * no queued job checks yet.
    */
  private def enqueueReassign(cands: Seq[Reassign.Candidate]): Unit = {
    val fresh = cands.filter(c => pendingReassigns.add((c.vid, c.version)))
    if (fresh.nonEmpty) jobs.enqueue(ReassignJob(fresh))
  }

  private def freshPid(): Long = { val p = nextPid; nextPid += 1; p }

  // ------------------------------------------------------------------ build

  /** Initial balanced index construction (SPANN §3.1): hierarchical
    * balanced clustering with boundary-closure replicas, sized for the
    * split limit by [[HierarchicalBuild.forSplitLimit]]; any stragglers go
    * through the normal LIRE split path.
    */
  def buildInitial(vectors: Seq[(Long, Array[Float])]): Unit = {
    require(store.numPostings == 0, "buildInitial on a non-empty index")
    val pts = vectors.toIndexedSeq
    val layout = HierarchicalBuild.forSplitLimit(pts.map(_._2), cfg, seed)
    val postingRecs = mutable.LongMap.empty[mutable.ArrayBuffer[VectorRecord]]
    pts.indices.foreach { i =>
      val (vid, vec) = pts(i)
      versions.register(vid)
      layout.memberships(i).foreach { part =>
        postingRecs.getOrElseUpdate(part.toLong, mutable.ArrayBuffer.empty) +=
          VectorRecord(vid, 0, vec)
      }
    }
    layout.centroids.indices.foreach { part =>
      val pid = freshPid()
      centroids.insert(pid, layout.centroids(part))
      store.put(pid, postingRecs.getOrElse(part.toLong, mutable.ArrayBuffer.empty).toSeq)
    }
    // Closure replication can still overfill a boundary-dense posting: hand
    // those to the Rebuilder so the built index starts LIRE-compliant.
    if (rebalanceEnabled) {
      store.postingIds.foreach { pid =>
        if (Lire.needsSplit(store.length(pid), cfg)) enqueueSplit(pid)
      }
      drainJobs()
    }
  }

  // ------------------------------------------------------ foreground updater

  /** Insert (§4.1 Updater): append to the closure posting set
    * ([[Lire.closure]]: the nearest posting plus any whose centroid is
    * within (1+ε) of the nearest distance, capped at `maxReplicas`), nearest
    * first — §3.2 inserts "following the original SPANN index design",
    * whose assignment replicates boundary vectors; this is how §5.2's
    * replica census stays "similar to the index built statically".
    * Reassign moves write through the same rule. On well-separated data the
    * closure set degenerates to the single nearest posting.
    */
  def insert(vid: Long, vec: Array[Float]): OpCost = {
    stats.inserts += 1
    val d0 = centroids.distanceComputations
    val (_, io) = store.io.measure {
      val targets = Lire.closure(centroids.nearest(vec, cfg.maxReplicas), cfg.replicaEpsilon)
      require(targets.nonEmpty, "insert into an empty index — call buildInitial first")
      val version = versions.register(vid)
      targets.foreach { pid =>
        store.append(pid, VectorRecord(vid, version, vec))
        if (rebalanceEnabled && Lire.needsSplit(store.length(pid), cfg)) enqueueSplit(pid)
      }
    }
    OpCost(io, centroids.distanceComputations - d0)
  }

  /** Delete (§4.1): tombstone in the version map; physical removal happens
    * in the Rebuilder's GC pass.
    */
  def delete(vid: Long): Unit = {
    stats.deletes += 1
    versions.markDeleted(vid)
  }

  // --------------------------------------------------------------- searcher

  /** Search `probes` nearest postings, drop stale replicas and tombstones,
    * return the k nearest live ids. Undersized postings spotted along the
    * way get merge jobs (§4.1: "a merge job is triggered by the Searcher").
    *
    * Each probed posting is scanned once by [[PostingScan.scan]]: one
    * staleness lookup per record both counts the posting's live length for
    * the merge trigger and admits the record to a bounded top-k that keeps
    * each id's smallest distance.
    *
    * `blockBudget` enforces the paper's hard latency cut (§5.1: "the system
    * finishes the result immediately and returns the current search
    * results"): postings are scanned in ascending centroid distance and the
    * scan stops once the budget of block reads is exhausted — this is the
    * mechanism by which bloated append-only postings lose recall.
    */
  def search(q: Array[Float], k: Int, probes: Int = -1,
             blockBudget: Long = Long.MaxValue): SearchResult = {
    val nProbes = if (probes > 0) probes else cfg.searchProbes
    val d0 = centroids.distanceComputations
    val (ids, io) = store.io.measure {
      val cand = centroids.nearest(q, nProbes)
      var blocksUsed = 0L
      val top = new VectorMath.TopK(math.max(0, k))
      cand.foreach { case (pid, _) =>
        if (blocksUsed < blockBudget) {
          blocksUsed += store.blockCount(pid)
          val live = PostingScan.scan(q, store.get(pid).iterator, isLive, top)
          if (rebalanceEnabled && Lire.needsMerge(live, cfg) && centroids.size > 1 &&
              centroids.get(pid).isDefined)
            enqueueMerge(pid)
        }
      }
      top.ids
    }
    SearchResult(ArraySeq.unsafeWrapArray(ids), OpCost(io, centroids.distanceComputations - d0))
  }

  /** The hard latency cut (§5.1) at reproduction scale, as a search's
    * `blockBudget`: twice the blocks a scan of `probes` postings at the
    * split limit reads.
    */
  def hardCutBlocks(probes: Int): Long =
    probes * math.ceil(cfg.splitLimit.toDouble / store.vectorsPerBlock).toLong * 2

  // ------------------------------------------------------- local rebuilder

  /** Run queued background jobs (split → reassign → cascading splits) to
    * completion, or at most `max` jobs. Returns jobs processed. Termination
    * of the unbounded drain is the §3.4 convergence property.
    */
  def drainJobs(max: Long = Long.MaxValue): Long = {
    var n = 0L
    while (jobs.nonEmpty && n < max) {
      jobs.dequeue() match {
        case SplitJob(pid)   => runSplit(pid)
        case MergeJob(pid)   => runMerge(pid)
        case ReassignJob(cands) => runReassign(cands)
      }
      n += 1
    }
    n
  }

  /** A posting's live records as stored, and then one per vid. */
  private def liveRows(pid: Long): Vector[VectorRecord] = store.get(pid).filter(r => isLive(r.vid, r.version))
  private def liveRecords(pid: Long): Vector[VectorRecord] = PostingSplit.onePerVid(liveRows(pid))

  /** A split job: [[Rebuilder.splitBatch]] of one posting, whose reader
    * reads a posting only when the batch asks for its rows; then its writes.
    * With reassign off, the candidates are dropped, so it reads no range.
    */
  private def runSplit(pid: Long): Unit = {
    pendingSplits.remove(pid)
    val splitCfg = if (reassignEnabled) cfg else cfg.copy(reassignRange = 0)
    val batch = Rebuilder.splitBatch(Seq(pid), centroids, splitCfg, () => freshPid(), _ => rnd.nextLong())(_ => liveRows)
    batch.gcOnly.foreach { case (p, live) => stats.gcOnlySplits += 1; store.put(p, live) }
    batch.splits.foreach { d =>
      stats.splitsExecuted += 1
      store.put(d.p0, d.split.half0)
      store.put(d.p1, d.split.half1)
      store.delete(d.pid)
    }
    if (reassignEnabled) enqueueReassign(batch.candidates)
  }

  /** A merge job: [[Rebuilder.mergeBatch]] of one posting, then its writes.
    * The target is rewritten as its own live rows, one per vid, plus the
    * merged ones (§3.2 appends them; the rewrite also GCs the target), and
    * keeps its centroid. A target filled past the limit enqueues a split.
    */
  private def runMerge(pid: Long): Unit = {
    pendingMerges.remove(pid)
    val batch = Rebuilder.mergeBatch(Seq(pid), centroids, cfg)(_ => liveRows)
    batch.gcOnly.foreach { case (p, live) => store.put(p, live) }
    batch.merges.foreach { m =>
      stats.merges += 1
      store.put(m.target, liveRecords(m.target) ++ m.rows)
      store.delete(m.pid)
    }
    if (reassignEnabled) enqueueReassign(batch.candidates)
    batch.merges.foreach(m => if (Lire.needsSplit(store.length(m.target), cfg)) enqueueSplit(m.target))
  }

  /** One event's reassign pass ([[Reassign.pass]]). Its membership read
    * reads each would-be mover's nearest posting once, however many movers
    * share it. A move is appended to its closure postings; one that fills
    * a posting past the limit enqueues a cascade split.
    */
  private def runReassign(cands: Seq[Reassign.Candidate]): Unit = {
    cands.foreach(c => pendingReassigns.remove((c.vid, c.version)))
    val (checked, moves) = Reassign.pass(cands, centroids, versions, cfg) { movers =>
      val read = movers.map(_._2).distinct.map(pid => pid -> store.get(pid)).toMap
      val bestOf = movers.toMap
      vid => { val pid = bestOf(vid); read(pid).collect { case r if r.vid == vid => (pid, r.version) } }
    }
    stats.reassignChecked += checked
    stats.reassignExecuted += moves.size
    stats.reassignAborted += checked - moves.size
    for (m <- moves; pid <- m.targets) {
      store.append(pid, VectorRecord(m.c.vid, m.version, m.c.vec))
      if (rebalanceEnabled && Lire.needsSplit(store.length(pid), cfg) && enqueueSplit(pid))
        stats.cascadeSplits += 1
    }
  }

  // ---------------------------------------------------------------- metrics

  /** Live length of every posting (tombstones and stale replicas excluded);
    * drives balance and latency-distribution metrics.
    */
  def livePostingSizes(): Map[Long, Int] =
    store.postingIds.map(p => p -> liveRecords(p).length).toMap

  /** Raw on-disk length of every posting (replicas included). */
  def rawPostingSizes(): Map[Long, Int] =
    store.postingIds.map(p => p -> store.length(p)).toMap

  /** Mean number of on-disk replicas per live vector (§5.2 reports 5.47). */
  def meanReplicas(): Double = {
    val live = versions.liveIds
    if (live.isEmpty) 0.0
    else {
      val total = store.postingIds.iterator.map { p =>
        store.get(p).count(r => !versions.isStale(r.vid, r.version))
      }.sum
      total.toDouble / live.size
    }
  }

  // ---------------------------------------------------------- recovery hooks

  /** Centroid map + pid counter as of now, for snapshotting (§4.4). */
  def centroidState(): (Map[Long, Array[Float]], Long) =
    (centroids.all.toMap, nextPid)

  /** Reload in-memory state from a snapshot: centroids and the pid counter.
    * Only valid on a freshly constructed engine attached to the surviving
    * block store; version-map restore happens via [[versions]].restore.
    */
  private[repro] def restoreCentroids(cs: Map[Long, Array[Float]], pidCounter: Long): Unit = {
    require(centroids.size == 0, "restoreCentroids on a used engine")
    cs.foreach { case (pid, c) => centroids.insert(pid, c) }
    nextPid = pidCounter
  }

  /** Memory model (bytes) per [[repro.metrics.ResourceModel]]. */
  def modelBytes: Long =
    repro.metrics.ResourceModel.clusterIndexBytes(
      centroids.size.toLong, dim, versions.size.toLong,
      store.postingIds.map(store.blockCount))
}

object SpFreshEngine {
  /** The Local Rebuilder's queued background jobs. */
  private sealed trait Job
  private final case class SplitJob(pid: Long) extends Job
  private final case class MergeJob(pid: Long) extends Job
  private final case class ReassignJob(cands: Seq[Reassign.Candidate]) extends Job
}
