package repro.storage

import scala.collection.mutable

import repro.core.PostingRecord

/** One on-disk vector tuple: `<vector id, version number, raw vector>`
  * (§4.3 storage data layout).
  */
final case class VectorRecord(vid: Long, version: Int, vec: Array[Float]) extends PostingRecord

/** Simulated raw-block SSD storage engine — the paper's Block Controller
  * (§4.3) minus the physical NVMe device.
  *
  * Faithful pieces:
  *  - postings are lists of records packed into fixed 4 KiB blocks
  *    (`8 B id + 1 B version + 4·dim B raw` per record);
  *  - an in-memory '''block mapping''' (posting id → block offsets, modelled
  *    at the paper's 40 B per entry) and a '''free block pool''';
  *  - '''APPEND''' is a read-modify-write of only the last block, written
  *    copy-on-write to a fresh block (§4.3 APPEND);
  *  - '''PUT''' bulk-writes a posting to fresh blocks and releases the old;
  *  - released blocks are *not* reused between snapshots (pre-release
  *    buffer, §4.4) so a crash rolls back cleanly;
  *  - posting-level write locks (§4.2.2) — reads are lock-free.
  *
  * Substituted piece: SPDK's async queue becomes synchronous calls whose
  * block counts feed [[IoStats]]; latency/IOPS are modelled downstream.
  */
final class BlockController(val dim: Int, val blockSizeBytes: Int = 4096) {
  require(dim >= 1)

  /** Bytes per record and records per block, per the paper's layout. */
  val recordBytes: Int = 8 + 1 + 4 * dim
  val vectorsPerBlock: Int = math.max(1, blockSizeBytes / recordBytes)

  val io = new IoStats

  // The simulated device: blockId -> packed records. Block contents are
  // immutable once written (copy-on-write), mirroring the raw SSD blocks.
  private val device = mutable.LongMap.empty[Vector[VectorRecord]]
  private val mapping = mutable.LongMap.empty[Vector[Long]] // pid -> block ids
  private val freePool = mutable.Queue.empty[Long]
  private var nextBlockId = 0L

  // Pre-release buffers (§4.4): blocks freed since the last snapshot and the
  // one before; only the older generation is reusable after a new snapshot.
  private var snapshotGuard = false
  private var pendingNew = mutable.ArrayBuffer.empty[Long]
  private var pendingOld = mutable.ArrayBuffer.empty[Long]

  private val postingLocks = new java.util.concurrent.ConcurrentHashMap[Long, Object]()

  private def lockFor(pid: Long): Object =
    postingLocks.computeIfAbsent(pid, _ => new Object)

  private def allocate(): Long = synchronized {
    if (freePool.nonEmpty) freePool.dequeue()
    else { val b = nextBlockId; nextBlockId += 1; b }
  }

  private def release(blockId: Long): Unit = synchronized {
    if (snapshotGuard) pendingNew += blockId
    else { device.remove(blockId); freePool.enqueue(blockId) }
  }

  /** GET: read all blocks of a posting (one block read each). Empty for an
    * unknown posting id.
    */
  def get(pid: Long): Vector[VectorRecord] = {
    val blocks = synchronized(mapping.getOrElse(pid, Vector.empty))
    io.recordReads(blocks.length)
    blocks.flatMap(b => synchronized(device.getOrElse(b, Vector.empty)))
  }

  /** APPEND (§4.3): add one record at the posting's tail, touching only the
    * last block — read it if partially full, write the merged content to a
    * freshly allocated block, release the old one.
    */
  def append(pid: Long, rec: VectorRecord): Unit = lockFor(pid).synchronized {
    val blocks = synchronized(mapping.getOrElse(pid, Vector.empty))
    val lastContent =
      if (blocks.isEmpty) Vector.empty[VectorRecord]
      else synchronized(device.getOrElse(blocks.last, Vector.empty))
    if (blocks.nonEmpty && lastContent.length < vectorsPerBlock) {
      io.recordReads(1) // RMW of a partial last block
      val nb = allocate()
      synchronized { device.update(nb, lastContent :+ rec) }
      io.recordWrites(1)
      synchronized { mapping.update(pid, blocks.init :+ nb) }
      release(blocks.last)
    } else {
      val nb = allocate()
      synchronized { device.update(nb, Vector(rec)) }
      io.recordWrites(1)
      synchronized { mapping.update(pid, blocks :+ nb) }
    }
  }

  /** PUT (§4.3): write a whole posting to fresh blocks in bulk; an existing
    * posting's old blocks are released to the (pre-release) pool.
    */
  def put(pid: Long, recs: Seq[VectorRecord]): Unit = lockFor(pid).synchronized {
    val groups = recs.grouped(vectorsPerBlock).map(_.toVector).toVector
    val newBlocks = groups.map { g =>
      val b = allocate()
      synchronized { device.update(b, g) }
      b
    }
    io.recordWrites(newBlocks.length)
    val old = synchronized {
      val o = mapping.getOrElse(pid, Vector.empty)
      mapping.update(pid, newBlocks)
      o
    }
    old.foreach(release)
  }

  /** Delete a posting entirely, releasing its blocks. */
  def delete(pid: Long): Unit = lockFor(pid).synchronized {
    val old = synchronized {
      val o = mapping.getOrElse(pid, Vector.empty)
      mapping.remove(pid)
      o
    }
    old.foreach(release)
  }

  /** Record count of a posting without device reads (length lives in the
    * in-memory block-mapping entry per §4.3).
    */
  def length(pid: Long): Int = synchronized {
    mapping.get(pid) match {
      case None => 0
      case Some(blocks) =>
        if (blocks.isEmpty) 0
        else (blocks.length - 1) * vectorsPerBlock +
          device.getOrElse(blocks.last, Vector.empty).length
    }
  }

  /** Block count of a posting (the per-query read cost of probing it). */
  def blockCount(pid: Long): Int = synchronized(mapping.getOrElse(pid, Vector.empty).length)

  def postingIds: Seq[Long] = synchronized(mapping.keys.toSeq)
  def numPostings: Int = synchronized(mapping.size)
  def usedBlocks: Int = synchronized(device.size)
  def freeBlocks: Int = synchronized(freePool.size)

  /** Memory-model bytes of the in-memory mapping: the paper's 40 B per
    * posting entry (§4.3).
    */
  def mappingModelBytes: Long = numPostings.toLong * 40

  /** Logical on-disk bytes (used blocks × block size) for disk-size plots. */
  def diskBytes: Long = usedBlocks.toLong * blockSizeBytes

  // --- snapshot support (§4.4) ----------------------------------------

  /** Start deferring block reuse so the previous snapshot stays intact. */
  def enableSnapshotGuard(): Unit = synchronized { snapshotGuard = true }

  /** Capture the durable mapping state (posting id → block ids). */
  def snapshotMapping(): Map[Long, Vector[Long]] = synchronized(mapping.toMap)

  /** Called when a new snapshot has been persisted: blocks freed before the
    * *previous* snapshot are now unreachable from any recoverable state and
    * return to the free pool (two-generation pre-release, §4.4).
    */
  def onSnapshotTaken(): Unit = synchronized {
    pendingOld.foreach { b => device.remove(b); freePool.enqueue(b) }
    pendingOld = pendingNew
    pendingNew = mutable.ArrayBuffer.empty[Long]
  }

  /** Crash recovery: roll the mapping back to a snapshot. Blocks written
    * after the snapshot become orphans and are reclaimed; pre-released
    * blocks referenced by the snapshot are resurrected (their contents were
    * never overwritten thanks to the guard).
    */
  def restoreMapping(snap: Map[Long, Vector[Long]]): Unit = synchronized {
    mapping.clear()
    snap.foreach { case (pid, blocks) => mapping.update(pid, blocks) }
    val referenced = snap.valuesIterator.flatten.toSet
    pendingNew.clear(); pendingOld.clear()
    freePool.clear()
    device.keysIterator.toVector.foreach { b =>
      if (!referenced(b)) { device.remove(b); freePool.enqueue(b) }
    }
  }
}
