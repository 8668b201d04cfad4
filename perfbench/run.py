#!/usr/bin/env python3
"""Run the repository benchmark on one workload.

usage (from the repository root):
    python3 perfbench/run.py --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]

--seed defaults to 1, --seconds to BENCHMARK.json's run_seconds and --trace
to 0.

Builds the simulator from src/ together with the measuring program in
perfbench/ (Release, into .bench_build/), runs the workload for about
--seconds seconds and prints its report. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. A traced run also writes its benchmark-side spans to
.bench_build/traces/<workload>-seed<n>.json. See perfbench/README.md.

Exit status: 0 when every operation was correct; otherwise non-zero, and
no result line is printed when the build or the run could not finish.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "gflink_perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: error: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    """Configure once and build the measuring program. Concurrent runs in
    one checkout serialise on a lock file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "gflink_perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})", 3)


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit status {proc.returncode})", 5)
    got = list(result.get("metrics", {}))
    if sorted(got) != sorted(names):
        print("\n".join(lines[:-1]))
        fail(f"metrics {got} do not match BENCHMARK.json {names}", 5)

    for line in lines[:-1]:
        print(line)
    print(f"wall {time.monotonic() - start:.1f} s, exit status {proc.returncode}")
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
