#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload cqa_read --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles the library from src/)
into .bench_build/perfbench with at most four compile jobs, then runs the
benchmark binary with the given arguments from the checkout root. Build
output goes to stderr; the binary's last stdout line is the JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cqa_read", "commit_stream", "mixed_serve")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "query_service.h")):
        fail("no Hippo source tree at " + os.path.join(ROOT, "src"))
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", build_dir, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, timeout=170)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(result.stdout)
        fail("benchmark exited with status %d" % result.returncode)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
