#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload revisit-hot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and compiles the
library and the benchmark into .bench_build/perfbench (Release); later runs
only check that the build is current. Build output goes to stderr, so the
last line of stdout is always the benchmark's JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "asqp_perfbench")


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
