#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first run builds the benchmark and
the program from source with sbt (perfbench/build.sbt); later runs reuse
the build until a source file changes. Build outputs, Spark's scratch
files and span files all stay under .bench_build/ in the checkout.

Each run starts one JVM (repro.perfbench.Main), which prints every metric
it measured as `metric <name> <value> <unit>`. This script echoes them and
then prints, as its last line, one JSON object holding exactly the metrics
BENCHMARK.json declares: `end_to_end` with --trace 0, `per_layer` with
--trace 1. --selftest runs the checker's self-test and a smoke run of every
workload at a tiny size, and fails unless each declared metric is printed
with its declared unit.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
LAUNCH = BUILD / "launch.txt"
STAMP = BUILD / "launch.stamp"
HEAP = "3g"
# The throughput collector: over several seeds, engine-microbatch's query_s
# spread 0.19 with G1 and 0.07 with this one (README.md).
GC = "-XX:+UseParallelGC"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Runnable and part of the recorded baseline, but not of BENCHMARK.json's
# regression set: a regression check's time budget holds two workloads (README.md).
EXTRA_WORKLOADS = ["hop-wide-ext7"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_files():
    """Every file the build reads: the program's and the benchmark's."""
    files = [ROOT / "build.sbt", HERE / "build.sbt"]
    for d in (ROOT / "project", HERE / "project"):
        files += [p for p in d.glob("*") if p.suffix in (".sbt", ".properties", ".scala")]
    for d in (ROOT / "src" / "main", ROOT / "jobs", HERE / "src"):
        files += [p for p in d.rglob("*") if p.is_file()]
    return sorted(p for p in files if p.is_file())


def run_group(cmd, timeout, what, **kw):
    """Run cmd in its own process group and wait for it; on timeout, kill
    the whole group (sbt's launcher script starts a JVM as a child)."""
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, text=True, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{what} exceeded {timeout} s")
    return proc.returncode, out


def build():
    """Build once per source state; return (classpath, JVM options)."""
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main").is_dir():
        fail("the program's sources (build.sbt, src/main) are not in this checkout", 2)
    digest = hashlib.sha256()
    for p in source_files():
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    stamp = digest.hexdigest()
    if not (LAUNCH.is_file() and STAMP.is_file() and STAMP.read_text() == stamp):
        BUILD.mkdir(exist_ok=True)
        env = dict(os.environ)
        env.setdefault("COURSIER_MODE", "offline")
        cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
               "perfbench/writeLaunch"]
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, "build", cwd=HERE, env=env, stdout=sys.stderr)
        if code != 0 or not LAUNCH.is_file():
            fail(f"build failed (sbt exit {code})")
        STAMP.write_text(stamp)
    cp, opts = None, []
    for line in LAUNCH.read_text().splitlines():
        key, _, val = line.partition("=")
        if key == "cp":
            cp = val
        elif key == "opt":
            opts.append(val)
    if not cp:
        fail(f"no classpath in {LAUNCH}")
    return cp, opts


def run_jvm(cp, opts, args):
    """Run the benchmark JVM; return its metrics {name: (value, unit)} and result."""
    for d in ("tmp", "spark-local", "warehouse"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, *opts, f"-Xms{HEAP}", f"-Xmx{HEAP}", GC,
           f"-Djava.io.tmpdir={BUILD / 'tmp'}",
           f"-Dspark.local.dir={BUILD / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={BUILD / 'warehouse'}",
           "-Dspark.driver.host=127.0.0.1",
           "-cp", cp, "repro.perfbench.Main", *args]
    code, stdout = run_group(cmd, RUN_TIMEOUT_S, "benchmark JVM", cwd=BUILD, stdout=subprocess.PIPE)
    if code != 0:
        fail(f"benchmark JVM exited with {code}")
    metrics, result = {}, None
    for line in stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) == 4:
            metrics[parts[1]] = (float(parts[2]), parts[3])
            print(f"{parts[1]} = {parts[2]} {parts[3]}")
        elif line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if result is None:
        fail("benchmark JVM printed no result")
    return metrics, result


def declared(trace):
    return spec()["per_layer" if trace else "end_to_end"]


def select(metrics, trace):
    """Exactly the declared metrics, with their declared units."""
    out = {}
    for m in declared(trace):
        if m["name"] not in metrics:
            fail(f"metric {m['name']} was not measured")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} measured in {unit}, declared in {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def selftest(cp, opts):
    metrics, result = run_jvm(cp, opts, ["--selftest"])
    if not result["correct"]:
        fail("checker self-test failed")
    for w in [w["name"] for w in spec()["workloads"]] + EXTRA_WORKLOADS:
        for trace in (0, 1):
            metrics, result = run_jvm(cp, opts, ["--workload", w, "--seed", "1", "--seconds", "1",
                                                 "--trace", str(trace), "--tiny"])
            select(metrics, trace)
            if not result["correct"] or result["failed"] != 0:
                fail(f"smoke run of {w} (trace {trace}) was not correct")
            print(f"smoke {w} trace={trace} ok")
    print("selftest ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec()["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload not in [w["name"] for w in spec()["workloads"]] + EXTRA_WORKLOADS:
        fail(f"unknown --workload {a.workload}", 2)
    cp, opts = build()
    if a.selftest:
        selftest(cp, opts)
        return
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-out", str(BUILD / "traces" / f"seed-{a.seed}" / f"{a.workload}.json")]
    metrics, result = run_jvm(cp, opts, args)
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": select(metrics, a.trace)}))


if __name__ == "__main__":
    main()
