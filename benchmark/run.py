#!/usr/bin/env python3
"""mcdc-bench entry point: build the benchmark from source, then run it.

    python3 benchmark/run.py --workload hot_replay --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first call configures and builds
build-bench/ with CMake (RelWithDebInfo); later calls rebuild incrementally.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result: {"correct", "attempted", "failed", "metrics"}
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) that BENCHMARK.json names. The exit code is 0 only when the
build succeeded and every check of the run passed.

--workload all runs every workload in one process (no JSON line). --log FILE
appends each run's result, tagged with workload, seed and host thread count,
as one JSON line; benchmark/compare.py reads such files.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "mcdc_bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", help="append one JSON line per run to this file")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--trace-dir={traces}"]
    if args.log:
        cmd.append(f"--log={os.path.abspath(args.log)}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or args.workload == "all":
        return proc.returncode

    # Guard against the binary and BENCHMARK.json drifting apart.
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = list(result.get("metrics", {}))
    want = expected_metrics(args.trace)
    if sorted(got) != sorted(want):
        print(f"run.py: metrics {sorted(set(got) ^ set(want))} differ between "
              "the benchmark and BENCHMARK.json", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
