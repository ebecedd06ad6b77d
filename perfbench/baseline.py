#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/BENCH_baseline.json
    python3 perfbench/baseline.py --workloads q7-stream --seeds 5 --out <file>

For each workload: one untraced run per seed (seeds 1..N), then one traced
run on seed 1. Writes every run's result line, and per end-to-end metric
the median and the quartile spread (Q3 - Q1) / median, with quartiles as
Python's statistics.quantiles(values, n=4) gives them.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as run_py  # noqa: E402


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    t0 = time.time()
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - t0
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        raise SystemExit(f"{' '.join(cmd)} exited with {r.returncode}")
    res = json.loads(r.stdout.strip().splitlines()[-1])
    res["seed"], res["wall_s"] = seed, round(wall, 1)
    print(f"{workload} seed={seed} trace={trace} wall={wall:.0f}s correct={res['correct']}", file=sys.stderr)
    return res


def summary(runs, metric):
    vals = [r["metrics"][metric]["value"] for r in runs]
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "spread": (q3 - q1) / med if med else None, "values": vals}


def machine():
    """The facts a baseline depends on: cores, Spark and JVM versions, heap, master."""
    launch = (ROOT / ".bench_build" / "launch.txt").read_text()
    spark = re.search(r"spark-core_[0-9.]+-([0-9.]+)\.jar", launch)
    java = subprocess.run(["java", "-version"], capture_output=True, text=True).stderr.splitlines()
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "spark": spark.group(1) if spark else None, "java": java[0] if java else None,
            "driver_heap": run_py.HEAP, "gc": run_py.GC, "master": f"local[{min(4, os.cpu_count())}]"}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    out = {"command": " ".join(["python3", "perfbench/baseline.py"] + sys.argv[1:]),
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in a.workloads:
        runs = [run(w, s, 0) for s in range(1, a.seeds + 1)]
        entry = {"untraced": {m["name"]: summary(runs, m["name"]) for m in spec["end_to_end"]},
                 "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "wall_s": [r["wall_s"] for r in runs]}
        entry["traced_seed1"] = run(w, 1, 1)
        out["workloads"][w] = entry
        for m in spec["end_to_end"]:
            s = entry["untraced"][m["name"]]
            print(f"{w:18} {m['name']:20} median {s['median']:.4g} spread {s['spread']:.3f} (bound {m['bound']})",
                  file=sys.stderr)
    out["machine"] = machine()  # after the runs: the first one builds the launch spec
    Path(a.out).write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
