package repro.storage

import repro.SparkSpec

/** Block Controller semantics (§4.3): packing, APPEND's last-block RMW,
  * PUT/DELETE, free-pool recycling, I/O accounting, pre-release guard.
  */
class BlockControllerSpec extends SparkSpec {
  private val dim = 8 // recordBytes = 8+1+32 = 41; vectorsPerBlock = 99

  private def rec(vid: Long, ver: Int = 0): VectorRecord =
    VectorRecord(vid, ver, Array.fill(dim)(vid.toFloat))

  test("record packing density follows the paper's layout") {
    val bc = new BlockController(dim)
    assert(bc.recordBytes == 8 + 1 + 4 * dim)
    assert(bc.vectorsPerBlock == 4096 / bc.recordBytes)
  }

  test("get of an unknown posting is empty and costs zero reads") {
    val bc = new BlockController(dim)
    val before = bc.io.blockReads
    assert(bc.get(99L).isEmpty)
    assert(bc.io.blockReads == before)
  }

  test("put then get round-trips records in order") {
    val bc = new BlockController(dim)
    val recs = (1L to 10L).map(rec(_))
    bc.put(1L, recs)
    assert(bc.get(1L).map(_.vid) == recs.map(_.vid))
    assert(bc.get(1L).head.vec.toSeq == recs.head.vec.toSeq)
  }

  test("put spans multiple blocks when the posting exceeds one block") {
    val bc = new BlockController(dim)
    val n = bc.vectorsPerBlock * 2 + 5
    bc.put(1L, (1L to n.toLong).map(rec(_)))
    assert(bc.blockCount(1L) == 3)
    assert(bc.length(1L) == n)
    assert(bc.get(1L).length == n)
  }

  test("append adds to the tail") {
    val bc = new BlockController(dim)
    bc.put(1L, Seq(rec(1), rec(2)))
    bc.append(1L, rec(3))
    assert(bc.get(1L).map(_.vid) == Seq(1L, 2L, 3L))
  }

  test("append to a missing posting creates it") {
    val bc = new BlockController(dim)
    bc.append(5L, rec(42))
    assert(bc.get(5L).map(_.vid) == Seq(42L))
  }

  test("append RMW touches only the last block (1 read + 1 write)") {
    val bc = new BlockController(dim)
    bc.put(1L, (1L to (bc.vectorsPerBlock + 3).toLong).map(rec(_))) // 2 blocks, last partial
    val r0 = bc.io.blockReads; val w0 = bc.io.blockWrites
    bc.append(1L, rec(999))
    assert(bc.io.blockReads == r0 + 1, "append must read only the last block")
    assert(bc.io.blockWrites == w0 + 1, "append must write only one block")
  }

  test("append to a full last block allocates a new block with no read") {
    val bc = new BlockController(dim)
    bc.put(1L, (1L to bc.vectorsPerBlock.toLong).map(rec(_))) // exactly full
    val r0 = bc.io.blockReads
    bc.append(1L, rec(999))
    assert(bc.io.blockReads == r0, "full last block needs no RMW read")
    assert(bc.blockCount(1L) == 2)
  }

  test("length is maintained without device reads") {
    val bc = new BlockController(dim)
    bc.put(1L, (1L to 7L).map(rec(_)))
    val r0 = bc.io.blockReads
    assert(bc.length(1L) == 7)
    bc.append(1L, rec(8))
    assert(bc.length(1L) == 8)
    assert(bc.io.blockReads == r0 + 1) // only the append's RMW read
  }

  test("get reads exactly the posting's block count") {
    val bc = new BlockController(dim)
    bc.put(1L, (1L to (bc.vectorsPerBlock * 2).toLong).map(rec(_)))
    val r0 = bc.io.blockReads
    bc.get(1L)
    assert(bc.io.blockReads == r0 + 2)
  }

  test("delete releases blocks back to the free pool") {
    val bc = new BlockController(dim)
    bc.put(1L, (1L to (bc.vectorsPerBlock + 1).toLong).map(rec(_)))
    val used = bc.usedBlocks
    bc.delete(1L)
    assert(bc.usedBlocks == used - 2)
    assert(bc.freeBlocks == 2)
    assert(bc.get(1L).isEmpty)
  }

  test("freed blocks are recycled by later writes") {
    val bc = new BlockController(dim)
    bc.put(1L, Seq(rec(1)))
    bc.delete(1L)
    assert(bc.freeBlocks == 1)
    bc.put(2L, Seq(rec(2)))
    assert(bc.freeBlocks == 0, "the freed block must be reused")
  }

  test("put overwrite releases the old blocks") {
    val bc = new BlockController(dim)
    bc.put(1L, (1L to (bc.vectorsPerBlock * 3).toLong).map(rec(_)))
    bc.put(1L, Seq(rec(7)))
    assert(bc.get(1L).map(_.vid) == Seq(7L))
    assert(bc.freeBlocks == 3)
  }

  test("mapping memory model is 40 bytes per posting") {
    val bc = new BlockController(dim)
    (1L to 5L).foreach(p => bc.put(p, Seq(rec(p))))
    assert(bc.mappingModelBytes == 200L)
  }

  test("snapshot guard defers block reuse across two snapshots") {
    val bc = new BlockController(dim)
    bc.put(1L, Seq(rec(1)))
    bc.enableSnapshotGuard()
    bc.delete(1L)
    assert(bc.freeBlocks == 0, "guarded release must not free immediately")
    bc.onSnapshotTaken() // generation 1: still pending
    assert(bc.freeBlocks == 0)
    bc.onSnapshotTaken() // generation 2: reclaimed
    assert(bc.freeBlocks == 1)
  }

  test("restoreMapping resurrects pre-released blocks and reclaims orphans") {
    val bc = new BlockController(dim)
    bc.put(1L, Seq(rec(1), rec(2)))
    bc.enableSnapshotGuard()
    val snap = bc.snapshotMapping()
    // Post-snapshot activity: overwrite posting 1 and create posting 2.
    bc.put(1L, Seq(rec(9)))
    bc.put(2L, Seq(rec(8)))
    bc.restoreMapping(snap)
    assert(bc.get(1L).map(_.vid) == Seq(1L, 2L), "snapshot content must be back")
    assert(bc.get(2L).isEmpty, "post-snapshot posting must vanish")
    assert(bc.freeBlocks == 2, "orphan blocks must be reclaimed")
  }

  test("concurrent appends to distinct postings do not lose records") {
    val bc = new BlockController(dim)
    val threads = (0 until 4).map { t =>
      new Thread(() => (0 until 200).foreach(i => bc.append(t.toLong, rec((t * 1000 + i).toLong))))
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    (0L until 4L).foreach(p => assert(bc.length(p) == 200, s"posting $p lost records"))
  }

  test("concurrent appends to the same posting serialize correctly") {
    val bc = new BlockController(dim)
    val threads = (0 until 4).map { t =>
      new Thread(() => (0 until 100).foreach(i => bc.append(1L, rec((t * 1000 + i).toLong))))
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    assert(bc.length(1L) == 400)
    assert(bc.get(1L).map(_.vid).distinct.length == 400)
  }
}
