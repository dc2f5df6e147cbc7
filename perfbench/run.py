#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload nt_grid --seed 1 --seconds 10 --trace 0

The first run configures and compiles perfbench/ (the simulator's
libraries plus the benchmark program) into .bench_build/ under the
current directory; later runs only re-check that build.
Build output goes to stderr; the last line on stdout is the summary
object {"correct", "attempted", "failed", "metrics"}. Inputs,
checkpoints and journals live in a scratch directory inside the build
directory and are removed when the run ends.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


# Relative, so trace names that embed input paths (and so the exact
# byte counts of journals, checkpoints and rendered JSON) are the same
# in every checkout.
BUILD_DIR = ".bench_build"


def build(bdir):
    """Configure (once) and build the benchmark; return its binary path."""
    if not os.path.isfile(os.path.join(REPO, "src", "core", "core.cc")):
        sys.exit("perfbench: simulator sources not found next to "
                 "perfbench/ (run from a checkout of the repository)")
    cmake_dir = os.path.join(bdir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "lrs_perfbench")


def main():
    # lrs_perfbench checks the arguments (--workload, --seed, --seconds,
    # --trace); this script only builds it and passes them on.
    binary = build(BUILD_DIR)
    cmd = [binary, "--workdir", os.path.join(BUILD_DIR, "work")]
    sys.stdout.flush()
    return subprocess.run(cmd + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
