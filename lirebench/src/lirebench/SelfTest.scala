package lirebench

/** The benchmark's own tests: `python3 lirebench/run.py --selftest`.
  * Plain assertions, so they need nothing beyond the benchmark's build.
  */
object SelfTest {
  private var failures = 0

  private def test(name: String)(body: => Unit): Unit =
    try { body; println(s"ok   $name") }
    catch { case e: Throwable => failures += 1; println(s"FAIL $name: ${e.getMessage}") }

  private def eq[A](got: A, want: A): Unit = assert(got == want, s"got $got, want $want")

  def main(args: Array[String]): Unit = {
    test("p99 needs ten samples beyond it") {
      eq(Stats.supported(1000, 99), true)
      eq(Stats.supported(999, 99), false)
      eq(Stats.supported(100, 99), false)
      eq(Stats.supported(20, 50), true)
      eq(Stats.supported(19, 50), false)
      eq(Stats.supported(0, 50), false)
    }

    test("percentiles interpolate between ranks") {
      val xs = (1 to 1001).map(_.toDouble)
      eq(Stats.percentile(xs, 99), 991.0)
      eq(Stats.percentile(xs, 50), 501.0)
      eq(Stats.median(Seq(3.0, 1.0, 2.0)), 2.0)
      eq(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)), 2.5)
      eq(Stats.percentile(Seq(7.0), 99), 7.0)
    }

    test("self time subtracts the union of child intervals once") {
      // Children 10-30 and 20-40 overlap: together they cover 30, not 40.
      eq(Intervals.selfTime((0L, 100L), Seq((10L, 30L), (20L, 40L), (50L, 60L))), 60L)
      // A child nested inside another adds nothing.
      eq(Intervals.selfTime((0L, 100L), Seq((10L, 90L), (20L, 30L))), 20L)
      // Children are clipped to the parent.
      eq(Intervals.selfTime((0L, 100L), Seq((-50L, 10L), (95L, 200L))), 85L)
      eq(Intervals.selfTime((0L, 100L), Seq.empty), 100L)
    }

    test("tracer charges a child span to the span in flight") {
      val t = new Tracer
      t.span("outside")(())
      eq(t.all.length, 0)
      t.recording = true
      t.span("engine.search")(t.span(TimedCentroidIndex.Nearest)(Thread.sleep(5)))
      t.span("engine.drain")(())
      eq(t.all.map(_.name), Seq("engine.search", TimedCentroidIndex.Nearest, "engine.drain"))
      eq(t.all(1).parent, 0)
      assert(t.childSeconds("engine.search", TimedCentroidIndex.Nearest) >= 0.005)
      eq(t.childSeconds("engine.drain", TimedCentroidIndex.Nearest), 0.0)
      assert(t.selfSeconds("engine.search") < t.seconds("engine.search"))
    }

    test("a planted bad search result is counted as a failure") {
      val live = Set(1L, 2L, 3L)
      val indexLive = Set(1L, 2L)
      val r = new Report
      r.check("search_result", Checks.searchResult(Seq(1L, 2L), 2, live, indexLive))
      r.check("search_result", Checks.searchResult(Seq(1L, 9L), 2, live, indexLive))  // deleted id
      r.check("search_result", Checks.searchResult(Seq(1L, 3L), 2, live, indexLive))  // stale id
      r.check("search_result", Checks.searchResult(Seq(1L, 1L), 2, live, indexLive))  // duplicate
      r.check("search_result", Checks.searchResult(Seq(1L), 2, live, indexLive))      // short
      eq(r.attempted, 5L)
      eq(r.failed, 4L)
      eq(r.failureCounts, Map("search_result" -> 4L))
      assert(r.toJson.contains("\"correct\": false"), r.toJson)
    }

    test("postings over the split limit are counted") {
      eq(Checks.oversized(Seq(10L, 128L, 129L, 400L), 128), 2)
    }

    test("NPA violations fail the check only beyond 1% of the live set") {
      eq(Checks.npaWithinTolerance(0, 10000), true)
      eq(Checks.npaWithinTolerance(100, 10000), true)
      eq(Checks.npaWithinTolerance(101, 10000), false)
      eq(Checks.npaWithinTolerance(1, 99), false)
    }

    test("rebalance jobs are filed under the innermost named method") {
      def site(frames: String*) = frames.map(f => s"repro.core.distributed.$f(X.scala:1)").mkString("\n")
      eq(SparkPhases.subPhase(site("DistIndex.rawSizes", "DistRebalancer.splitRound", "DistRebalancer.run")), "sizes")
      eq(SparkPhases.subPhase(site("DistRebalancer.applyReassigns", "DistRebalancer.mergeRound")), "reassign")
      eq(SparkPhases.subPhase(site("DistIndex.commit", "DistRebalancer.splitRound")), "split")
      eq(SparkPhases.subPhase(site("DistIndex.commit", "DistRebalancer.mergeRound")), "merge")
      eq(SparkPhases.subPhase(site("DistRebalancer.run")), "other")
    }

    if (failures > 0) { println(s"$failures self-test(s) failed"); sys.exit(1) }
    println("all self-tests passed")
  }
}
