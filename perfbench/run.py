#!/usr/bin/env python3
"""Run one workload of the V-ETL benchmark and print its result.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload covid-batch --seed 1 --seconds 10 --trace 0

Builds the repository's library and the benchmark program from source with sbt
on first use (the build is cached under .bench_build/ and redone when any
source changes), then runs it in one JVM with the Spark settings of
the `jobs` entry points. Prints a metadata line and, as the last line of
stdout, the result object {"correct", "attempted", "failed", "metrics"}.
Exits non-zero when an output check fails or the run cannot be made.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("covid-batch", "mot-batch")
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"

# Stream length for every workload: 0.25 x the paper's 16 + 8 days of COVID.
SCALE = "0.25"
# Fixed driver heap, so live-heap and GC figures compare across machines.
DRIVER_HEAP = "3g"
# A run's own deadline; the build on first use has its own.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# The JVM flags spark-submit passes to a Java 17 driver (Spark 4.1's
# org.apache.spark.launcher.JavaModuleOptions).
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
    "-Dio.netty.allocator.type=pooled",
    "-Dio.netty.handler.ssl.defaultEndpointVerificationAlgorithm=NONE",
    "--enable-native-access=ALL-UNNAMED",
]

# Everything the build reads: a change to any of these rebuilds.
BUILD_INPUTS = [
    "build.sbt", "project", "src/main", "jobs/src/main",
    "perfbench/build.sbt", "perfbench/project", "perfbench/src",
]


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def source_digest():
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        p = ROOT / rel
        files = [p] if p.is_file() else sorted(f for f in p.rglob("*") if f.is_file())
        for f in files:
            if "target" in f.relative_to(ROOT).parts:
                continue
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def classpath():
    """Builds with sbt when a source changed; returns the runtime classpath."""
    stamp, cp_file = BUILD / "classpath.stamp", BUILD / "classpath.txt"
    digest = source_digest()
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    log("building with sbt ...")
    t0 = time.time()
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    cp = lines[-1].strip() if lines else ""
    if code != 0 or "perfbench" not in cp:
        sys.stderr.write(out)
        raise SystemExit(f"sbt build failed (exit {code})")
    log(f"built in {time.time() - t0:.1f} s")
    BUILD.mkdir(parents=True, exist_ok=True)
    cp_file.write_text(cp)
    stamp.write_text(digest)
    return cp


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("build.sbt", "src/main", "jobs/src/main") if not (ROOT / p).exists()]
    if missing:
        raise SystemExit(f"not a checkout of the repository: missing {', '.join(missing)}")

    cp = classpath()
    run_dir = BUILD / f"run-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    result_file = BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"

    env = dict(os.environ)
    env["REPRO_SCALE"] = SCALE
    env["SPARK_LOCAL_DIRS"] = str(tmp)
    env.setdefault("SPARK_LOCAL_IP", "127.0.0.1")
    java = str(Path(env["JAVA_HOME"]) / "bin" / "java") if env.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xmx{DRIVER_HEAP}", f"-Djava.io.tmpdir={tmp}", *JAVA_MODULE_OPTIONS,
           "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(run_dir / "work"), "--result-file", str(result_file),
           "--git-rev", git_rev()]
    try:
        code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=run_dir, env=env,
                                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 and not (lines and lines[-1].startswith('{"correct"')):
        raise SystemExit(f"benchmark program failed (exit {code})")
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
