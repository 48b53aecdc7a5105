#!/usr/bin/env python3
"""Builds the TagMatch benchmark runner from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The runner is configured and built with CMake
under $CARGO_TARGET_DIR (default .bench_build) on first use and rebuilt
incrementally after. Build output goes to stderr; stdout carries the
runner's record line and, last, its result object. See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench_runner"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            return None
    return os.path.join(build_dir, "perfbench_runner")


def main(argv):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    runner = build(os.path.abspath(build_root))
    if runner is None:
        return 1
    try:
        proc = subprocess.run([runner] + argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: runner did not finish within {RUN_TIMEOUT_S} s\n")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
