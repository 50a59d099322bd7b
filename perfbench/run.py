#!/usr/bin/env python3
"""Build and run one workload of the monitoring-path benchmark.

    python3 perfbench/run.py --workload backbone --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only re-check the build.  Build output is shown (on stderr) only when a
step fails, so the last line of stdout is newton_perf's result object.
Exits non-zero, without a result, when the sources or the build are
missing or broken.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "newton_perf")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: repository sources (src/) not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "newton_perf",
                  "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode:
            sys.stderr.write(p.stdout)
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 2
    try:
        return subprocess.run([BINARY] + argv, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: workload exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
