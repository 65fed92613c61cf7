#!/usr/bin/env python3
"""Closed-loop Clusterfile benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the pfm library from src/) into the
directory named by CARGO_TARGET_DIR, or .bench_build, then runs one workload
of the benchmark program (src/main.cpp explains the workloads and the
output). The last line of standard output is the result object; a traced
run writes its span dump under <build dir>/run.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("strided_mismatch", "replicated_bulk", "view_churn")
# A run measures for --seconds plus set-up and, when traced, a replay; this
# bounds the whole run well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(build_dir, targets):
    """Configures (once) and builds the benchmark; build output goes to
    stderr so standard output stays the benchmark's own."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true",
                   help="build and run the tests of the benchmark's own pieces")
    args = p.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir, ["perfbench_selftest"] if args.self_test else ["pfm_perfbench"])
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode

    cmd = [os.path.join(build_dir, "pfm_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "run")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
