#!/usr/bin/env python3
"""Builds and runs the mdmatch repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
harness (the mdmatch library from src/ plus the files in this directory)
under .bench_build/perfbench; later calls only rebuild what changed. Build
output goes to standard error, so the last line of standard output is the
harness's JSON result. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def call(command):
    """Runs a build step with its output on stderr; fails on error."""
    done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"'{' '.join(command)}' exited with {done.returncode}")


def build():
    if not (BUILD / "build.ninja").exists() and not (BUILD / "Makefile").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        call(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", str(BUILD), "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload '{args.workload}'")

    build()
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--trace-file", str(BUILD / f"trace-{args.workload}.json")]
    # Set-ups and correctness checks take a fixed allowance; the measured
    # window, its warm-up and a traced run's replay grow with --seconds.
    timeout = 90 + 4 * args.seconds
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {timeout:g}s")
    if done.returncode != 0:
        fail(f"harness exited with {done.returncode}")

    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("harness printed no result line")
    names = set(result.get("metrics", {}))
    wanted = {m["name"]
              for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}
    if set(result) != RESULT_KEYS or (result["correct"] and names != wanted):
        fail(f"malformed result line: {lines[-1]}")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
