package repro.storage

import java.nio.file.Files

import repro.SparkSpec
import repro.core.LireConfig
import repro.core.engine.SpFreshEngine
import repro.data.VectorGen

/** End-to-end crash recovery (§4.4): snapshot + WAL replay over a surviving
  * block device must restore search-equivalent state.
  */
class RecoverySpec extends SparkSpec {
  private val dim = 8
  private val cfg = LireConfig(splitLimit = 32, mergeThreshold = 4, reassignRange = 8,
    searchProbes = 8)

  private def freshEngine(n: Int): (SpFreshEngine, IndexedSeq[VectorGen.Vec]) = {
    val mix = VectorGen.mixture(dim, 6, seed = 1)
    val base = VectorGen.draw(mix, n, 0, seed = 2)
    val e = new SpFreshEngine(dim, cfg)
    e.buildInitial(base.map(v => (v.id, v.vec)))
    (e, base)
  }

  test("snapshot file round-trips its contents") {
    val dir = Files.createTempDirectory("snap")
    val snap = Snapshot(
      dim = 4, nextPid = 42L,
      centroids = Map(1L -> Array(1f, 2f, 3f, 4f)),
      versions = Map(10L -> ((3, false)), 11L -> ((0, true))),
      blockMapping = Map(1L -> Vector(5L, 6L)),
    )
    val p = dir.resolve("s.bin")
    Snapshot.write(snap, p)
    val back = Snapshot.read(p)
    assert(back.dim == 4 && back.nextPid == 42L)
    assert(back.centroids(1L).toSeq == Seq(1f, 2f, 3f, 4f))
    assert(back.versions == snap.versions)
    assert(back.blockMapping == snap.blockMapping)
  }

  test("recovery with an empty WAL restores identical search results") {
    val (e, base) = freshEngine(300)
    val dir = Files.createTempDirectory("rec")
    val snapP = dir.resolve("snap.bin"); val walP = dir.resolve("wal.bin")
    Recovery.takeSnapshot(e, snapP, walP)
    val mix = VectorGen.mixture(dim, 6, seed = 1)
    val qs = VectorGen.queries(mix, 10, seed = 3)
    val before = qs.map(q => e.search(q, 10).ids)
    // crash: engine discarded, device survives
    val recovered = Recovery.recover(e.store, snapP, walP, cfg)
    val after = qs.map(q => recovered.search(q, 10).ids)
    assert(before == after)
    assert(base.forall(v => recovered.versions.isLive(v.id)))
  }

  test("WAL replay reapplies post-snapshot inserts and deletes") {
    val (e, base) = freshEngine(300)
    val dir = Files.createTempDirectory("rec2")
    val snapP = dir.resolve("snap.bin"); val walP = dir.resolve("wal.bin")
    Recovery.takeSnapshot(e, snapP, walP)

    val mix = VectorGen.mixture(dim, 6, seed = 1)
    val fresh = VectorGen.draw(mix, 50, idStart = 10000, seed = 5)
    val wal = new Wal(walP)
    fresh.foreach { v => wal.logInsert(v.id, v.vec); e.insert(v.id, v.vec) }
    base.take(20).foreach { v => wal.logDelete(v.id); e.delete(v.id) }
    wal.close()
    e.drainJobs()

    val recovered = Recovery.recover(e.store, snapP, walP, cfg)
    // Live sets must agree exactly.
    assert(recovered.versions.liveIds == e.versions.liveIds)
    // New vectors must be searchable after recovery.
    val live = (base.drop(20) ++ fresh).map(v => (v.id, v.vec))
    val hits = fresh.take(10).count { v =>
      recovered.search(v.vec, 10).ids.contains(v.id)
    }
    assert(hits >= 9, s"recovered index lost fresh vectors: $hits/10")
    // And deleted vectors must stay gone.
    base.take(20).foreach { v =>
      assert(!recovered.search(v.vec, 10).ids.contains(v.id))
    }
    assert(live.nonEmpty)
  }

  test("takeSnapshot truncates the covered WAL") {
    val (e, _) = freshEngine(100)
    val dir = Files.createTempDirectory("rec3")
    val snapP = dir.resolve("snap.bin"); val walP = dir.resolve("wal.bin")
    val wal = new Wal(walP); wal.logDelete(1L); wal.close()
    Recovery.takeSnapshot(e, snapP, walP)
    assert(Wal.replay(walP).isEmpty)
  }

  test("double crash: recover, update, snapshot, crash, recover again") {
    val (e, _) = freshEngine(200)
    val dir = Files.createTempDirectory("rec4")
    val snapP = dir.resolve("snap.bin"); val walP = dir.resolve("wal.bin")
    Recovery.takeSnapshot(e, snapP, walP)
    val r1 = Recovery.recover(e.store, snapP, walP, cfg)
    val mix = VectorGen.mixture(dim, 6, seed = 1)
    VectorGen.draw(mix, 30, 5000, seed = 6).foreach(v => r1.insert(v.id, v.vec))
    r1.drainJobs()
    Recovery.takeSnapshot(r1, snapP, walP)
    val r2 = Recovery.recover(r1.store, snapP, walP, cfg)
    assert(r2.versions.liveIds == r1.versions.liveIds)
    assert(r2.livePostingSizes().values.sum > 0)
  }
}
