#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload <wire_hot|paper_views|ingest_rw> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. The first run configures and builds
`perfbench` (the gpmv library from src/ plus the benchmark binary from
perfbench/src) with CMake in Release mode under $CARGO_TARGET_DIR (default
.bench_build);
later runs only re-check the build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Traced runs also write
their spans to <build dir>/traces/<workload>-seed<N>.jsonl.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    os.chdir(root)
    if not os.path.isfile(os.path.join("src", "engine", "query_engine.h")):
        fail("no gpmv sources under src/; run from a full checkout")

    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))

    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
