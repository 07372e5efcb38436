#!/usr/bin/env python3
"""Build the qbench harness from source and run one workload.

Usage (from the repository root):

    python3 qbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

Configures and builds qbench/ (which builds the explorer library from
src/) into .bench_build/qbench, then runs the harness in the current
directory with the same arguments. The harness prints the metrics; its
last stdout line is the JSON result. Exits non-zero, without a result,
if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    log_path = build_dir + ".log"
    os.makedirs(os.path.dirname(build_dir), exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4",
                      "--target", "qbench"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("qbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(build_dir, "qbench")


def main():
    build_dir = os.path.join(os.getcwd(), ".bench_build", "qbench")
    binary = build(build_dir)
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:],
                          stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
