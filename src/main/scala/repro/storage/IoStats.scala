package repro.storage

import java.util.concurrent.atomic.LongAdder

/** Block-granular I/O accounting for the simulated SSD.
  *
  * The container has no raw NVMe device, so instead of timing SPDK I/Os the
  * reproduction *counts* them; [[repro.metrics.LatencyModel]] converts
  * counts into latency and IOPS. Every read or write of one 4 KiB block is
  * one unit — exactly the quantity the paper's Block Controller issues to
  * the device.
  */
final class IoStats {
  private val reads = new LongAdder
  private val writes = new LongAdder

  def recordReads(n: Long): Unit = reads.add(n)
  def recordWrites(n: Long): Unit = writes.add(n)

  def blockReads: Long = reads.sum()
  def blockWrites: Long = writes.sum()

  /** Delta-capture helper: run `f`, return its result plus the block I/Os
    * it issued (single-threaded callers only).
    */
  def measure[A](f: => A): (A, IoDelta) = {
    val r0 = blockReads; val w0 = blockWrites
    val a = f
    (a, IoDelta(blockReads - r0, blockWrites - w0))
  }
}

/** I/O issued by one operation. */
final case class IoDelta(reads: Long, writes: Long) {
  def total: Long = reads + writes
  def +(o: IoDelta): IoDelta = IoDelta(reads + o.reads, writes + o.writes)
}

object IoDelta { val zero: IoDelta = IoDelta(0, 0) }
