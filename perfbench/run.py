#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-nodelay --seed 1 --seconds 24 --trace 0

perfbench_driver (perfbench/driver.cc) and the LakeFed libraries it links
are built with CMake into .bench_build/ (incremental after the first run).
Build output goes to stderr; perfbench_driver's stdout is passed through,
and its last line is the JSON result. Any build or run failure exits
non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# A run must end within 180 s; perfbench_driver needs at most
# 2 x --seconds plus set-up, warm-ups, lead-ins and replays (a traced
# service-gamma1 run at --seconds 24 takes about 75 s).
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # Configuring an existing tree is a no-op, and repairs a tree left
    # half-configured by an earlier failure.
    if not run_quiet(configure, BUILD_TIMEOUT_S):
        return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_driver", "-j", jobs], BUILD_TIMEOUT_S)


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        done = subprocess.run([DRIVER] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
