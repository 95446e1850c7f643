package repro.core.distributed

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, FileInputStream, FileOutputStream}
import java.nio.file.{Files, Path, StandardCopyOption}

import repro.core.LireConfig

/** Everything a [[DistIndex]] needs to reopen: the lake's data files and
  * the driver state of its last commit, but for the replica map, which
  * `open` rebuilds from one read of the visible rows.
  *
  * @param seq       number of commits made so far
  * @param files     the lake's data files, relative to its data directory
  * @param fileRows  rows held by `files`, visible or hidden
  * @param centroids (pid, centroid) of every posting
  * @param table     the posting table
  * @param dirty     version-map states other than (version 0, live)
  */
private[distributed] final case class Manifest(
    seq: Int,
    dim: Int,
    cfg: LireConfig,
    nextPid: Long,
    fileRows: Long,
    files: Seq[String],
    centroids: Seq[(Long, Array[Float])],
    table: Seq[(Long, PostingMeta)],
    dirty: Map[Long, (Int, Boolean)],
) {

  /** Write to a temp file next to `path`, sync it, rename it over `path`
    * atomically, and sync the directory, so the rename itself survives a
    * crash: a reader sees the old manifest or this one whole.
    */
  def write(path: Path): Unit = {
    val tmp = path.resolveSibling(path.getFileName.toString + ".tmp")
    val fos = new FileOutputStream(tmp.toFile)
    val out = new DataOutputStream(new BufferedOutputStream(fos))
    try {
      out.writeInt(Manifest.Magic)
      out.writeInt(seq); out.writeInt(dim)
      out.writeInt(cfg.splitLimit); out.writeInt(cfg.mergeThreshold); out.writeInt(cfg.reassignRange)
      out.writeInt(cfg.searchProbes); out.writeDouble(cfg.replicaEpsilon); out.writeInt(cfg.maxReplicas)
      out.writeLong(nextPid); out.writeLong(fileRows)
      out.writeInt(files.size); files.foreach(out.writeUTF)
      out.writeInt(centroids.size)
      centroids.foreach { case (pid, c) => out.writeLong(pid); c.foreach(out.writeFloat) }
      out.writeInt(table.size)
      table.foreach { case (pid, m) =>
        out.writeLong(pid); out.writeInt(m.generation); out.writeLong(m.raw); out.writeLong(m.live)
      }
      out.writeInt(dirty.size)
      dirty.foreach { case (vid, (v, d)) => out.writeLong(vid); out.writeInt(v); out.writeBoolean(d) }
      out.flush()
      fos.getFD.sync()
    } finally out.close()
    Files.move(tmp, path, StandardCopyOption.ATOMIC_MOVE, StandardCopyOption.REPLACE_EXISTING)
    LakeFiles.force(path.toAbsolutePath.getParent)
  }
}

private[distributed] object Manifest {
  private val Magic = 0x4c414b32 // "LAK2"

  def read(path: Path): Manifest = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(path.toFile)))
    try {
      require(in.readInt() == Magic, s"$path is not a lake manifest")
      val seq = in.readInt(); val dim = in.readInt()
      val cfg = LireConfig(splitLimit = in.readInt(), mergeThreshold = in.readInt(),
        reassignRange = in.readInt(), searchProbes = in.readInt(), replicaEpsilon = in.readDouble(),
        maxReplicas = in.readInt())
      val nextPid = in.readLong(); val fileRows = in.readLong()
      val files = Seq.fill(in.readInt())(in.readUTF())
      val centroids = Seq.fill(in.readInt())(in.readLong() -> Array.fill(dim)(in.readFloat()))
      val table = Seq.fill(in.readInt())(in.readLong() -> PostingMeta(in.readInt(), in.readLong(), in.readLong()))
      val dirty = Seq.fill(in.readInt())(in.readLong() -> ((in.readInt(), in.readBoolean()))).toMap
      Manifest(seq, dim, cfg, nextPid, fileRows, files, centroids, table, dirty)
    } finally in.close()
  }
}
