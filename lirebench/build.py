"""Build the benchmark: compile the repository's main sources and the
benchmark's own sources with the Scala compiler that ships with Spark.

Run from the repository root:  python3 lirebench/build.py

Output goes to .bench_build/lirebench/classes. A content hash of every
source file is kept beside it, so an unchanged tree is not rebuilt.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build", "lirebench")
CLASSES = os.path.join(OUT, "classes")


def spark_jars():
    """Spark's jars/ directory: under $SPARK_HOME, else beside the
    spark-submit found on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = os.path.join(home or ".", "jars")
    if not glob.glob(os.path.join(jars, "spark-core_*.jar")):
        sys.exit("lirebench: no Spark jars found; set SPARK_HOME")
    return jars


def classpath():
    return CLASSES + os.pathsep + os.path.join(spark_jars(), "*")


def sources():
    repo = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not repo:
        sys.exit("lirebench: src/main/scala not found; run from the repository root")
    bench = sorted(glob.glob(os.path.join(BENCH_DIR, "src", "**", "*.scala"), recursive=True))
    return repo + bench


def build():
    srcs = sources()
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    stamp = os.path.join(OUT, "stamp")
    digest = h.hexdigest()
    if os.path.exists(stamp) and open(stamp).read() == digest:
        return
    jars = spark_jars()
    compiler = [glob.glob(os.path.join(jars, f"{n}-2.13.*.jar"))
                for n in ("scala-compiler", "scala-library", "scala-reflect")]
    if not all(compiler):
        sys.exit(f"lirebench: no Scala 2.13 compiler jars under {jars}")
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    print(f"lirebench: compiling {len(srcs)} sources", file=sys.stderr)
    cmd = ["java", "-Xmx1g", "-cp", os.pathsep.join(c[0] for c in compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", tmp,
           "-cp", os.path.join(jars, "*")] + srcs
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("lirebench: compilation failed")
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(tmp, CLASSES)
    with open(stamp, "w") as f:
        f.write(digest)


if __name__ == "__main__":
    build()
