package repro.core

import repro.SparkSpec

/** Version map semantics (§4.1/§4.2): 7-bit version + delete bit, CAS
  * reassign bumps, staleness, and contention behavior.
  */
class VersionMapSpec extends SparkSpec {

  test("fresh vector is live at version 0") {
    val m = new VersionMap
    m.register(1L)
    assert(m.isLive(1L))
    assert(!m.isDeleted(1L))
    assert(m.currentVersion(1L) == 0)
  }

  test("re-registering a known id continues from its old version, live again") {
    val m = new VersionMap
    assert(m.register(1L) == 0)
    assert(m.tryBumpVersion(1L, 0).contains(1))
    m.markDeleted(1L)
    assert(m.register(1L) == 2)
    assert(m.isLive(1L))
    assert(m.currentVersion(1L) == 2)
    // Replicas of both older versions stay stale.
    assert(m.isStale(1L, 0) && m.isStale(1L, 1) && !m.isStale(1L, 2))
    // A live id re-registered (re-inserted) moves on too.
    assert(m.register(1L) == 3)
    assert(m.isStale(1L, 2))
  }

  test("modCount moves on every state change and on nothing else") {
    val m = new VersionMap
    def moved(f: => Any): Boolean = { val before = m.modCount; f; m.modCount != before }
    assert(moved(m.register(1L)))
    assert(moved(m.register(1L)), "re-registering bumps the version")
    assert(!moved(m.tryBumpVersion(1L, 0)), "a failed CAS changes nothing")
    assert(moved(m.tryBumpVersion(1L, 1)))
    assert(moved(m.markDeleted(1L)))
    assert(!moved(m.markDeleted(1L)), "a second tombstone changes nothing")
    assert(!moved(m.isStale(1L, 2)))
    assert(moved(m.restore(m.snapshot())))
  }

  test("unknown vector is reported deleted and version -1") {
    val m = new VersionMap
    assert(m.isDeleted(42L))
    assert(!m.isLive(42L))
    assert(m.currentVersion(42L) == -1)
  }

  test("a delete of an id the map never held leaves no state") {
    val m = new VersionMap
    m.markDeleted(42L)
    assert(m.size == 0 && m.modCount == 0)
    assert(m.isDeleted(42L) && m.currentVersion(42L) == -1)
    assert(m.register(42L) == 0)
  }

  test("markDeleted sets the tombstone and is idempotent") {
    val m = new VersionMap
    m.register(1L)
    m.markDeleted(1L)
    m.markDeleted(1L)
    assert(m.isDeleted(1L))
    assert(!m.isLive(1L))
  }

  test("a disk replica at the current version is not stale") {
    val m = new VersionMap
    m.register(1L)
    assert(!m.isStale(1L, 0))
  }

  test("a disk replica at an old version is stale") {
    val m = new VersionMap
    m.register(1L)
    assert(m.tryBumpVersion(1L, 0).contains(1))
    assert(m.isStale(1L, 0))
    assert(!m.isStale(1L, 1))
  }

  test("every replica of a deleted vector is stale") {
    val m = new VersionMap
    m.register(1L)
    m.markDeleted(1L)
    assert(m.isStale(1L, 0))
  }

  test("tryBumpVersion succeeds only from the expected version") {
    val m = new VersionMap
    m.register(1L)
    assert(m.tryBumpVersion(1L, 3).isEmpty) // wrong expectation
    assert(m.tryBumpVersion(1L, 0).contains(1))
    assert(m.tryBumpVersion(1L, 0).isEmpty) // already moved on
    assert(m.tryBumpVersion(1L, 1).contains(2))
  }

  test("tryBumpVersion aborts on deleted vectors") {
    val m = new VersionMap
    m.register(1L)
    m.markDeleted(1L)
    assert(m.tryBumpVersion(1L, 0).isEmpty)
  }

  test("version wraps at the 7-bit boundary") {
    val m = new VersionMap
    m.register(1L)
    var v = 0
    (1 to 127).foreach { _ => v = m.tryBumpVersion(1L, v).get }
    assert(v == 127)
    assert(m.tryBumpVersion(1L, 127).contains(0))
  }

  test("liveIds excludes tombstones") {
    val m = new VersionMap
    (1L to 5L).foreach(m.register)
    m.markDeleted(2L)
    m.markDeleted(4L)
    assert(m.liveIds == Set(1L, 3L, 5L))
  }

  test("modelBytes is one byte per tracked vector (paper §4.2.1)") {
    val m = new VersionMap
    (1L to 100L).foreach(m.register)
    assert(m.modelBytes == 100L)
  }

  test("snapshot/restore round-trips all state") {
    val m = new VersionMap
    (1L to 10L).foreach(m.register)
    m.tryBumpVersion(3L, 0)
    m.markDeleted(7L)
    val snap = m.snapshot()
    val m2 = new VersionMap
    m2.restore(snap)
    assert(m2.currentVersion(3L) == 1)
    assert(m2.isDeleted(7L))
    assert(m2.liveIds == m.liveIds)
  }

  test("concurrent CAS bumps: exactly one winner per round") {
    val m = new VersionMap
    m.register(1L)
    val threads = 8
    val rounds = 100
    val wins = new java.util.concurrent.atomic.AtomicInteger(0)
    (0 until rounds).foreach { r =>
      val pool = (1 to threads).map { _ =>
        new Thread(() => if (m.tryBumpVersion(1L, r % 128).isDefined) wins.incrementAndGet())
      }
      pool.foreach(_.start())
      pool.foreach(_.join())
    }
    assert(wins.get() == rounds, "each round must have exactly one CAS winner")
  }

  test("concurrent register/delete does not corrupt the map") {
    val m = new VersionMap
    val pool = (0 until 8).map { t =>
      new Thread(() => (0 until 500).foreach { i =>
        val vid = (t * 500 + i).toLong
        m.register(vid)
        if (i % 3 == 0) m.markDeleted(vid)
      })
    }
    pool.foreach(_.start())
    pool.foreach(_.join())
    assert(m.size == 4000)
    assert(m.liveIds.size == 4000 - 8 * 167)
  }
}
