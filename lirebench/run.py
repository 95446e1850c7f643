"""Wall-clock benchmark of both LIRE engines.

Run from the repository root:

  python3 lirebench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
  python3 lirebench/run.py --workload <name> --seed <n> --seconds <s> --trace 0 --repeat <r>
  python3 lirebench/run.py --selftest

The first form builds if needed (see build.py), runs the workload in its
own JVM, prints a table of every metric with its unit and sample count,
and ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the workload runs twice, untraced then traced, and the
metrics are the per-layer ones plus the tracing overhead on each
end-to-end metric. --repeat runs seeds n..n+r-1 and prints each metric's
median, quartiles and (q3-q1)/median.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["engine-churn-shifted", "engine-search-stationary", "lake-shifted-epochs"]
RUN_TIMEOUT_S = 175

# Spark's launcher opens these modules on Java 17; a plain `java` run of a
# Spark driver needs the same.
JAVA_MODULE_OPTS = ["-XX:+IgnoreUnrecognizedVMOptions", "--add-modules=jdk.incubator.vector"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def declared_metrics():
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_jvm(workload, seed, seconds, trace, deadline):
    """One workload run in a fresh JVM; returns its report as a dict."""
    scratch = os.path.join(build.OUT, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(os.path.join(scratch, "tmp"))
    cmd = (["java", "-XX:+UseSerialGC", "-Xms2g", "-Xmx2g", f"-Djava.io.tmpdir={scratch}/tmp",
            "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties")]
           + JAVA_MODULE_OPTS
           + ["-cp", build.classpath(), "lirebench.Main", "--workload", workload,
              "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
              "--lake-dir", os.path.join(scratch, "lake")])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit(f"lirebench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or not lines:
        sys.exit(f"lirebench: {workload} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace):
    """The result object of one benchmark run, plus a printable table."""
    e2e, per_layer = declared_metrics()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    plain = run_jvm(workload, seed, seconds, 0, deadline)
    runs = [plain]
    if trace:
        traced = run_jvm(workload, seed, seconds, 1, deadline)
        runs.append(traced)
        got = traced["metrics"]
        metrics = {}
        for name, unit in per_layer.items():
            if name.startswith("trace_overhead."):
                # How much worse the traced run read, as a share of the untraced one.
                m = name[len("trace_overhead."):]
                base = plain["metrics"][m]["value"]
                worse = got[m]["value"] - base if e2e[m]["better"] == "lower" else base - got[m]["value"]
                metrics[name] = {"value": worse / base, "unit": unit, "n": 1}
            elif name == "op_fail_ratio":
                metrics[name] = {"value": plain["failed"] / plain["attempted"], "unit": unit,
                                 "n": plain["attempted"]}
            else:
                # A layer this workload never calls reports zero work.
                metrics[name] = got.get(name, {"value": 0, "unit": unit, "n": 0})
    else:
        metrics = {name: plain["metrics"][name] for name in e2e}
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    rows = [f"# {workload}  seed={seed} seconds={seconds} trace={trace}"]
    rows += [f"  {k:<36} {v['value']:>14.6g} {v['unit']:<10} n={v['n']}" for k, v in metrics.items()]
    rows.append(f"  checks: attempted={result['attempted']} failed={result['failed']} "
                f"op_fail_ratio={result['failed'] / result['attempted']:.3g} "
                f"failures={[r.get('failures', {}) for r in runs]}")
    return result, "\n".join(rows)


def repeat(workload, seed, seconds, trace, n):
    values = {}
    for i in range(n):
        result, table = measure(workload, seed + i, seconds, trace)
        print(table, flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"# {workload}: {n} runs, seeds {seed}..{seed + n - 1}")
    print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for k, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / q2 if q2 else float("nan")
        print(f"  {k:<36} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")


def main():
    # A TERM must still stop the JVM: the exception makes subprocess.run
    # kill its child and wait for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    build.build()
    if a.selftest:
        cmd = ["java", "-cp", build.classpath(), "lirebench.SelfTest"]
        sys.exit(subprocess.run(cmd).returncode)
    if not a.workload:
        ap.error("--workload is required")
    if a.repeat:
        for w in (WORKLOADS if a.workload == "all" else [a.workload]):
            repeat(w, a.seed, a.seconds, a.trace, a.repeat)
        return
    results = {}
    for w in (WORKLOADS if a.workload == "all" else [a.workload]):
        results[w], table = measure(w, a.seed, a.seconds, a.trace)
        print(table, flush=True)
    print(json.dumps(results[a.workload] if a.workload != "all" else results))


if __name__ == "__main__":
    main()
