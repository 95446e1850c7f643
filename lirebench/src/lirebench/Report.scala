package lirebench

import scala.collection.mutable

/** One reported number with its unit and the samples behind it. */
final case class Metric(value: Double, unit: String, n: Long)

/** Everything one workload run reports: named metrics plus the
  * correctness ledger. Every operation and every check is one attempt;
  * a wrong search result or a violated invariant is one failure, named by
  * the check that caught it.
  */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, Metric]
  private val failures = mutable.LinkedHashMap.empty[String, Long]
  private var attemptedN = 0L
  private var failedN = 0L

  def put(name: String, value: Double, unit: String, n: Long = 1): Unit =
    metrics(name) = Metric(value, unit, n)

  def attempt(n: Long): Unit = attemptedN += n

  /** Record one checked operation; `ok = false` counts it as failed. */
  def check(name: String, ok: Boolean): Unit = {
    attemptedN += 1
    if (!ok) { failedN += 1; failures(name) = failures.getOrElse(name, 0L) + 1 }
  }

  /** Record `n` checked items of which `bad` failed. */
  def checkMany(name: String, n: Long, bad: Long): Unit = {
    attemptedN += n
    if (bad > 0) { failedN += bad; failures(name) = failures.getOrElse(name, 0L) + bad }
  }

  def attempted: Long = attemptedN
  def failed: Long = failedN
  def failureCounts: Map[String, Long] = failures.toMap

  def toJson: String = {
    val ms = metrics.map { case (k, m) =>
      s"${Json.str(k)}: {\"value\": ${Json.num(m.value)}, \"unit\": ${Json.str(m.unit)}, \"n\": ${m.n}}"
    }.mkString(", ")
    val fs = failures.map { case (k, v) => s"${Json.str(k)}: $v" }.mkString(", ")
    s"{\"correct\": ${failedN == 0}, \"attempted\": $attemptedN, \"failed\": $failedN, " +
      s"\"failures\": {$fs}, \"metrics\": {$ms}}"
  }
}

object Json {
  def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""

  /** Full-precision number; non-finite values become null so a broken
    * metric is visible instead of silently parsed.
    */
  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null"
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else java.lang.Double.toString(d)
}

/** Sample statistics with the support rule the benchmark reports by. */
object Stats {

  /** Percentile of a non-empty sample, interpolated linearly between the
    * two closest ranks, so a median of an even count is the mean of the
    * middle two and does not jump between them from run to run.
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted.toIndexedSeq
    val pos = p / 100.0 * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  /** 1-based nearest rank of percentile `p` in `n` samples. */
  def rank(n: Int, p: Double): Int = math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** A percentile is reported only when at least `minBeyond` samples lie
    * beyond it; otherwise the tail is a handful of outliers, not a
    * distribution.
    */
  def supported(n: Int, p: Double, minBeyond: Int = 10): Boolean =
    n > 0 && n - rank(n, p) >= minBeyond

  def median(xs: Seq[Double]): Double = percentile(xs, 50)
}
