#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The first call configures and builds
perfbench (and the repository libraries it links) in .bench_build/perfbench
under the checkout; later calls rebuild only what changed. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. Exits with the benchmark's own code, or non-zero without a
result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_JOBS = str(max(1, min(3, os.cpu_count() or 1)))


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"run.py: cannot run {step[0]}: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: '{' '.join(step)}' failed", file=sys.stderr)
            return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    binary = build()
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
