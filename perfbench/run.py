#!/usr/bin/env python3
"""Build and run the Minuet end-to-end benchmark.

    python3 perfbench/run.py --workload ycsb-load --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The benchmark executable is built
from source with dune into .bench_build/ and then run; its standard
output is passed through unchanged, so the last line is the JSON result.
Build output goes to standard error. The exit code is the benchmark's
(non-zero when a correctness check fails), 2 when the build fails and 3
on timeout. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/minuet_perf.exe"
WORKLOADS = ["ycsb-load", "ycsb-b-zipf", "htap-scan"]
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no Minuet source tree around " + HERE + " (dune-project, lib/)", 2)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH", 2)
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", TARGET]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed", 2)
    return os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "minuet_perf.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
