#!/usr/bin/env python3
"""hostbench: host-time benchmark of the sx4ncar simulator.

Builds the benchmark and the simulator library from source (CMake, into
.bench_build/ at the root of the checkout), then runs one workload:

  python3 hostbench/run.py --workload <name> --seed <n> [--seconds <s>]
                           [--trace 0|1] [--threads <t>] [--out <dir>]

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Two more modes:

  python3 hostbench/run.py compare <parent-results> <change-results>
  python3 hostbench/run.py test

`compare` reads the result records two sets of runs wrote (--out) and
prints one row per workload and metric; `test` builds and runs the
benchmark's own tests.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")


def jobs():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def build(build_dir, target, extra=()):
    """Configure (once) and build `target`; build output goes to stderr."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release", *extra], **quiet)
        if rc != 0:
            return rc
    return subprocess.call(["cmake", "--build", build_dir, "--target", target,
                            "-j", jobs()], **quiet)


def main(argv):
    if argv[:1] == ["compare"]:
        sys.path.insert(0, HERE)
        import compare
        return compare.main(argv[1:])
    if argv[:1] == ["test"]:
        build_dir = os.path.join(BUILD_ROOT, "hostbench-tests")
        rc = build(build_dir, "hostbench_tests", ["-DHOSTBENCH_TESTS=ON"])
        if rc != 0:
            return rc
        return subprocess.call(["ctest", "--test-dir", build_dir,
                                "--output-on-failure"])
    build_dir = os.path.join(BUILD_ROOT, "hostbench")
    if build(build_dir, "hostbench") != 0:
        print("hostbench: build failed", file=sys.stderr)
        return 1
    return subprocess.call([os.path.join(build_dir, "hostbench"), *argv],
                           cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
