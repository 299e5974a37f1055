#!/usr/bin/env python3
"""Builds and runs the dcer end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <tpch_batch|serve_stream>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (the library sources under
src/ plus dcer_perfbench.cc) into .bench_build/perfbench; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. A traced run (--trace 1) also writes a Chrome
trace_event file to .bench_build/traces/. The exit code is non-zero, and no
result is printed, if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dcer_perfbench")
# A run is meant to end well within 180 s; a hung run is killed before that.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "dcer_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main(argv):
    args = list(argv)
    if "--trace" in args and "--smoke" not in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1":
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            name = "-".join(args[args.index(k) + 1] if k in args else "x"
                            for k in ("--workload", "--seed"))
            args += ["--trace-file", os.path.join(traces, name + ".json")]
    if not build():
        return 2
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
