#!/usr/bin/env python3
"""Build and run the end-to-end attack-simulation benchmark.

    python3 perfbench/run.py --workload large_array_attack --seed 2026 \
        --seconds 40 --trace 0

Run from the repository root. The first call configures and builds libnh and
nh_perfbench (perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild only what changed.
nh_perfbench's last stdout line is the result object; the exit code is
its own (1 when an operation failed, 2 on a usage or build error).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("large_array_attack", "round_robin_fem", "variability_campaign")
# nh_perfbench stops its own work at 165 s; this is the hard backstop.
RUN_TIMEOUT_S = 175


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(build_dir):
    """Configure (once) and build nh_perfbench; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no libnh sources next to {HERE}")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    # Compiler temporaries stay inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "nh_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)
    return build_dir / "nh_perfbench"


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=0,
                   help="pool threads (default min(4, nproc))")
    p.add_argument("--record-reference", action="store_true",
                   help="re-record the workload's default-seed reference rows")
    args = p.parse_args()

    try:
        exe = build(build_root() / "perfbench")
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-dir", str(HERE / "reference"), "--commit", commit_id()]
    if args.threads > 0:
        cmd += ["--threads", str(args.threads)]
    if args.trace:
        trace = build_root() / "traces" / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--trace-file", str(trace)]
    if args.record_reference:
        cmd.append("--record-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
