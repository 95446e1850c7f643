package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

/** Global in-memory vector version map (§4.1, §4.2.1).
  *
  * The paper packs each vector's state into one byte: seven bits of
  * reassign version plus one deletion bit. We keep the same encoding
  * (`state = version << 1 | deletedBit`) inside an `AtomicInteger` so the
  * concurrency-control story is faithful: reassignments bump the version
  * with a CAS and abort on failure (§4.2.2), and a replica on disk is
  * *stale* when its recorded version differs from the in-memory one.
  */
final class VersionMap {
  private val states = new ConcurrentHashMap[Long, AtomicInteger]()
  private val mods = new AtomicLong

  /** Number of state changes so far. A reader that caches a view of the
    * map (the lake's broadcast of dirty states) rebuilds it only when this
    * count has moved.
    */
  def modCount: Long = mods.get()

  /** Max representable version before the 7-bit counter wraps. */
  val MaxVersion: Int = 127

  /** Register an inserted vector, not deleted, and return the version its
    * replicas must be written at: 0 for a new id; for a known id (a deleted
    * or re-inserted one) its old version + 1, so that none of its old
    * replicas is live again. The version wraps like [[tryBumpVersion]].
    */
  def register(vid: Long): Int = {
    val known = states.putIfAbsent(vid, new AtomicInteger(0))
    mods.incrementAndGet()
    if (known == null) 0
    else known.updateAndGet(st => (((st >>> 1) + 1) & MaxVersion) << 1) >>> 1
  }

  /** True iff the vector has been tombstoned. */
  def isDeleted(vid: Long): Boolean = {
    val s = states.get(vid)
    s == null || (s.get() & 1) == 1
  }

  /** True iff the vector is known and live. */
  def isLive(vid: Long): Boolean = {
    val s = states.get(vid)
    s != null && (s.get() & 1) == 0
  }

  /** Current reassign version; -1 for unknown vectors. */
  def currentVersion(vid: Long): Int = {
    val s = states.get(vid)
    if (s == null) -1 else s.get() >>> 1
  }

  /** Set the deletion bit (tombstone). Idempotent. An id the map never
    * held is already reported deleted and stays untracked, so a delete of
    * outside input leaves no tombstone behind.
    */
  def markDeleted(vid: Long): Unit = {
    val s = states.get(vid)
    if (s == null) return
    var cur = s.get()
    while ((cur & 1) == 0 && !s.compareAndSet(cur, cur | 1)) cur = s.get()
    if ((cur & 1) == 0) mods.incrementAndGet()
  }

  /** A disk replica recorded at `diskVersion` is stale when it disagrees
    * with the in-memory version or the vector was deleted (§4.1).
    */
  def isStale(vid: Long, diskVersion: Int): Boolean = {
    val s = states.get(vid)
    s == null || {
      val st = s.get()
      (st & 1) == 1 || (st >>> 1) != diskVersion
    }
  }

  /** CAS-bump the reassign version from `expected` (§4.2.2 concurrent
    * reassign). Returns the new version, or None when the vector moved on
    * (version changed or tombstoned) — the caller must abort the reassign.
    * Versions wrap at 127 back to 0 per the 7-bit encoding.
    */
  def tryBumpVersion(vid: Long, expected: Int): Option[Int] = {
    val s = states.get(vid)
    if (s == null) None
    else {
      val cur = s.get()
      if ((cur & 1) == 1 || (cur >>> 1) != expected) None
      else {
        val next = ((expected + 1) & MaxVersion) << 1
        if (s.compareAndSet(cur, next)) { mods.incrementAndGet(); Some(next >>> 1) } else None
      }
    }
  }

  /** Live vector ids (no tombstone). */
  def liveIds: Set[Long] = {
    val b = Set.newBuilder[Long]
    states.forEach((vid, s) => if ((s.get() & 1) == 0) b += vid)
    b.result()
  }

  /** Number of tracked vectors (live + tombstoned). */
  def size: Int = states.size()

  /** Memory-model bytes: the paper's one byte per vector (§4.2.1). */
  def modelBytes: Long = states.size().toLong

  /** Snapshot of all states for crash recovery: vid -> (version, deleted). */
  def snapshot(): Map[Long, (Int, Boolean)] = {
    val b = Map.newBuilder[Long, (Int, Boolean)]
    states.forEach((vid, s) => {
      val st = s.get()
      b += vid -> ((st >>> 1, (st & 1) == 1))
    })
    b.result()
  }

  /** Restore from a [[snapshot]]. Replaces all current state. */
  def restore(snap: Map[Long, (Int, Boolean)]): Unit = {
    mods.incrementAndGet()
    states.clear()
    snap.foreach { case (vid, (ver, del)) =>
      states.put(vid, new AtomicInteger((ver << 1) | (if (del) 1 else 0)))
    }
  }
}
