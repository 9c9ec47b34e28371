#!/usr/bin/env python3
"""Build and run the nestedtx end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload disjoint --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the engine from src/) into
.bench_build/perfbench, runs one workload in a fresh log directory under
.bench_build/runs/, deletes that directory, and relays the driver's
output. The last line of stdout is the JSON result. A traced run also
leaves its spans in .bench_build/spans/<workload>-seed<n>.tsv.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
BINARY = os.path.join(BUILD, "nestedtx_perfbench")
WORKLOADS = ("disjoint", "nested_zipf", "durable_occ")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}")
    if code != 0:
        fail(f"failed ({code}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        fail("engine sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    run_dir = os.path.join(OUT, "runs", f"{args.workload}-{os.getpid()}")
    spans_dir = os.path.join(OUT, "spans")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir,
           "--spans", os.path.join(spans_dir,
                                   f"{args.workload}-seed{args.seed}.tsv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        fail(f"driver exited {proc.returncode} without a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result: {lines[-1]}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
