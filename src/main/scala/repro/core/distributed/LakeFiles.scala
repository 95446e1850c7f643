package repro.core.distributed

import java.nio.channels.FileChannel
import java.nio.file.{Path, StandardOpenOption}

import scala.jdk.CollectionConverters._

import org.apache.hadoop.conf.Configuration
import org.apache.parquet.hadoop.{ParquetFileWriter, ParquetWriter}
import org.apache.parquet.hadoop.api.WriteSupport
import org.apache.parquet.hadoop.metadata.CompressionCodecName
import org.apache.parquet.io.{LocalOutputFile, OutputFile}
import org.apache.parquet.io.api.RecordConsumer
import org.apache.parquet.schema.{MessageType, MessageTypeParser}

/** The lake's files on the local file system: the driver's Parquet writer
  * of data files, and fsync.
  */
private[distributed] object LakeFiles {

  /** [[PostingRow.fileSchema]] as Spark writes it to Parquet: `vec` is a
    * 3-level LIST of required floats.
    */
  private val parquetSchema: MessageType = MessageTypeParser.parseMessageType(
    """message spark_schema {
      |  required int64 vid;
      |  required int64 pid;
      |  required int32 version;
      |  optional group vec (LIST) {
      |    repeated group list {
      |      required float element;
      |    }
      |  }
      |  required int32 seq;
      |}""".stripMargin)

  /** The writer's Hadoop configuration, empty and built once: the writer
    * needs none of Hadoop's default settings, and loading them for every
    * file took about 15 ms of a 20 ms write of 400 rows.
    */
  private val conf = new Configuration(false)

  /** Write `rows`, in their order and stamped with commit `seq`, as one
    * SNAPPY-compressed Parquet file at `path`, replacing any file there.
    * The file goes straight to the local file system: no Spark job, and
    * no Hadoop `FileSystem`, which would leave a `.crc` file beside it.
    */
  def write(path: Path, rows: Iterable[PostingRow], seq: Int): Unit = {
    val writer = new RowsBuilder(new LocalOutputFile(path), seq)
      .withConf(conf)
      .withWriteMode(ParquetFileWriter.Mode.OVERWRITE)
      .withCompressionCodec(CompressionCodecName.SNAPPY)
      .build()
    try rows.foreach(writer.write) finally writer.close()
  }

  /** fsync a file or a directory. */
  def force(path: Path): Unit = {
    val ch = FileChannel.open(path, StandardOpenOption.READ)
    try ch.force(true) finally ch.close()
  }

  private final class RowsBuilder(file: OutputFile, seq: Int)
      extends ParquetWriter.Builder[PostingRow, RowsBuilder](file) {
    override protected def self(): RowsBuilder = this
    override protected def getWriteSupport(conf: Configuration): WriteSupport[PostingRow] = new RowsSupport(seq)
  }

  /** Emits each row's fields in [[parquetSchema]]'s order. */
  private final class RowsSupport(seq: Int) extends WriteSupport[PostingRow] {
    private var out: RecordConsumer = _

    override def init(conf: Configuration): WriteSupport.WriteContext =
      new WriteSupport.WriteContext(parquetSchema, Map.empty[String, String].asJava)

    override def prepareForWrite(consumer: RecordConsumer): Unit = out = consumer

    private def field(name: String, index: Int)(value: => Unit): Unit = {
      out.startField(name, index)
      value
      out.endField(name, index)
    }

    override def write(r: PostingRow): Unit = {
      out.startMessage()
      field("vid", 0)(out.addLong(r.vid))
      field("pid", 1)(out.addLong(r.pid))
      field("version", 2)(out.addInteger(r.version))
      field("vec", 3) {
        out.startGroup()
        if (r.vec.nonEmpty) field("list", 0) {
          r.vec.foreach { x =>
            out.startGroup()
            out.startField("element", 0)
            out.addFloat(x)
            out.endField("element", 0)
            out.endGroup()
          }
        }
        out.endGroup()
      }
      field("seq", 4)(out.addInteger(seq))
      out.endMessage()
    }
  }
}
