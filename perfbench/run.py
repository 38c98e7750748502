#!/usr/bin/env python3
"""Build the ccperf benchmark from source and run one workload.

    python3 perfbench/run.py --workload infer|plan|serve --seed N \
        --seconds S --trace 0|1

The library and the benchmark binary are built with the repository's own
CMake project (the benchmark directory joins it through build.cmake) into
$CARGO_TARGET_DIR, or .bench_build/ at the repository root. Build output goes
to stderr; the benchmark's stdout is passed through unchanged, so its last
line is the result object. Run artefacts (observed check values, the
environment record and, with --trace 1, the span file, layer table and
Fig. 3 comparison) land in <build dir>/perfbench-out/.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TARGET = "ccperf_perfbench"


def build(build_dir):
    """Configures (once) and builds the benchmark target; False on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [
            "cmake", "-S", ROOT, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
            "-DCCPERF_BUILD_TESTS=OFF", "-DCCPERF_BUILD_BENCH=OFF",
            "-DCCPERF_BUILD_EXAMPLES=OFF", "-DCCPERF_BUILD_TOOLS=OFF",
            "-DCMAKE_PROJECT_ccperf_INCLUDE="
            + os.path.join(BENCH_DIR, "build.cmake"),
        ]
        if subprocess.run(configure, stdout=sys.stderr,
                          stdin=subprocess.DEVNULL).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", TARGET, "-j", jobs],
        stdout=sys.stderr, stdin=subprocess.DEVNULL).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["infer", "plan", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    out_dir = os.path.join(
        build_dir, "perfbench-out",
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    command = [
        os.path.join(build_dir, "perfbench", TARGET),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--reference", os.path.join(BENCH_DIR, "reference"),
        "--out", out_dir,
    ]
    sys.stdout.flush()
    return subprocess.run(command, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
