#!/usr/bin/env python3
"""Determinism self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py [--workloads a,b,...]

Run from the repository root (builds through perfbench/run.py). Checks:
  * every count a cycle reports (pulses, Newton iterations, constructions,
    the digest of the checked outputs) repeats exactly across two runs;
  * variability_campaign outcomes are identical at 1 and 4 threads;
  * a second, held-out seed passes every output check;
  * a traced run reports every per-layer metric BENCHMARK.json lists and
    writes a trace that loads as Chrome trace-event JSON.
Each run is one cycle (--seconds 1). Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 2026
HELD_OUT_SEED = 7


def run(workload, seed=DEFAULT_SEED, threads=0, trace=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if threads:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} seed {seed}: output check failed\n{proc.stdout}")
    counts = [json.loads(l.split(" ", 2)[2]) for l in lines
              if l.startswith("perfbench counts ")]
    return result, counts


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def check(condition, message):
    if not condition:
        fail(message)
    print(f"ok   {message}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads",
                   default="large_array_attack,round_robin_fem,variability_campaign")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    for workload in args.workloads.split(","):
        _, first = run(workload)
        _, second = run(workload)
        check(first == second, f"{workload}: counts repeat exactly {first[0]}")
        run(workload, seed=HELD_OUT_SEED)
        check(True, f"{workload}: seed {HELD_OUT_SEED} passes the output checks")

    if "variability_campaign" in args.workloads:
        _, serial = run("variability_campaign", threads=1)
        _, pooled = run("variability_campaign", threads=4)
        check(serial[0]["physics_digest"] == pooled[0]["physics_digest"],
              "variability_campaign: outcomes identical at 1 and 4 threads")

        result, _ = run("variability_campaign", trace=1)
        expected = {m["name"] for m in bench["per_layer"]}
        check(set(result["metrics"]) == expected,
              "traced run reports every per-layer metric")
        build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        trace_path = (build if build.is_absolute() else ROOT / build) / \
            "traces" / f"variability_campaign-seed{DEFAULT_SEED}.json"
        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        check(events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
              f"trace loads as Chrome trace-event JSON ({len(events)} spans)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
