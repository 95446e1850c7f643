package lirebench

/** One workload run in this JVM:
  * `lirebench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--lake-dir <dir>]`.
  * Prints progress to stderr and the run's [[Report]] as the last line of
  * stdout. `--trace 1` installs the layer wrappers; without it none is
  * installed.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    val workload = opt("workload")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toInt
    val traced = opt("trace") == "1"
    val report = workload match {
      case EngineBench.Churn.name      => EngineBench.run(EngineBench.Churn, seed, seconds, traced)
      case EngineBench.Stationary.name => EngineBench.run(EngineBench.Stationary, seed, seconds, traced)
      case LakeBench.Name              => LakeBench.run(opt("lake-dir"), seed, seconds, traced)
      case other                       => sys.error(s"unknown workload $other")
    }
    println(report.toJson)
  }
}
