package lirebench

import scala.collection.mutable

import repro.centroid.CentroidIndex

/** Interval arithmetic for self time: a layer's self time is its span's
  * duration minus the part of that span its children cover, and children
  * that overlap each other are subtracted once, not once each.
  */
object Intervals {

  /** Length of the union of `iv`, each clipped to `[lo, hi)`. */
  def unionLength(iv: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = iv.iterator
      .map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }
      .toVector.sortBy(_._1)
    var total = 0L
    var curS = Long.MinValue; var curE = Long.MinValue
    clipped.foreach { case (s, e) =>
      if (s > curE) { total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    total + (curE - curS)
  }

  /** Parent duration minus the union of its children. */
  def selfTime(parent: (Long, Long), children: Seq[(Long, Long)]): Long =
    (parent._2 - parent._1) - unionLength(children, parent._1, parent._2)
}

/** One timed call at a layer boundary. `parent` indexes the span that was
  * open when this one started (-1 at the top).
  */
final case class Span(name: String, start: Long, end: Long, parent: Int) {
  def nanos: Long = end - start
}

/** In-memory span recorder for the traced run. Spans are kept only while
  * `recording` is on, so set-up and warm-up calls leave no trace; they are
  * read out once the workload ends.
  */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  var recording = false

  def span[A](name: String)(f: => A): A =
    if (!recording) f
    else {
      val id = spans.length
      spans += Span(name, System.nanoTime(), 0L, open.headOption.getOrElse(-1))
      open = id :: open
      try f
      finally {
        open = open.tail
        spans(id) = spans(id).copy(end = System.nanoTime())
      }
    }

  def all: IndexedSeq[Span] = spans.toIndexedSeq

  def count(name: String): Long = spans.count(_.name == name).toLong

  /** Total seconds spent in spans called `name`. */
  def seconds(name: String): Double = spans.iterator.filter(_.name == name).map(_.nanos).sum / 1e9

  /** Seconds of `child` spans opened directly under `parent` spans. */
  def childSeconds(parent: String, child: String): Double =
    spans.iterator.filter(s => s.name == child && s.parent >= 0 && spans(s.parent).name == parent)
      .map(_.nanos).sum / 1e9

  /** Total self time of `name` spans: each span minus the union of its
    * direct children.
    */
  def selfSeconds(name: String): Double = {
    val kids = spans.iterator.filter(_.parent >= 0).toVector.groupBy(_.parent)
    spans.indices.iterator.filter(spans(_).name == name).map { i =>
      val s = spans(i)
      Intervals.selfTime((s.start, s.end), kids.getOrElse(i, Vector.empty).map(c => (c.start, c.end)))
    }.sum / 1e9
  }
}

/** The traced run's view of the centroid layer: every `nearest` call
  * becomes a span under whichever engine call is in flight, so centroid
  * time is attributed to search, insert or the rebuilder's drain.
  */
final class TimedCentroidIndex(inner: CentroidIndex, tracer: Tracer) extends CentroidIndex {
  override def insert(pid: Long, centroid: Array[Float]): Unit = inner.insert(pid, centroid)
  override def remove(pid: Long): Unit = inner.remove(pid)
  override def get(pid: Long): Option[Array[Float]] = inner.get(pid)
  override def nearest(q: Array[Float], k: Int): Seq[(Long, Double)] =
    tracer.span(TimedCentroidIndex.Nearest)(inner.nearest(q, k))
  override def size: Int = inner.size
  override def all: Iterator[(Long, Array[Float])] = inner.all
  override def distanceComputations: Long = inner.distanceComputations
}

object TimedCentroidIndex {
  val Nearest = "centroid.nearest"
}
