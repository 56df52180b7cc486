#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (Release, with the anthill library from the
parent tree) under .bench_build/perfbench, then runs the perfbench binary
from the repository root with the same arguments. Build output goes to
stderr, so the binary's result line stays the last line of stdout. The exit
code is the build's when it fails, else the benchmark's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode
        if code != 0:
            return code
    return 0


def main():
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    binary = os.path.join(BUILD_DIR, "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
