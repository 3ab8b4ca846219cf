#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds ricd_perfbench from
the checkout's sources into .bench_build/perfbench (later calls only check
that the build is up to date); build output goes to stderr. The benchmark's
last stdout line is its result object. Workloads: offline_medium,
stream_window, serve_mixed (see perfbench/README.md). `--scale tiny` shrinks
every scenario for smoke runs.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "ricd_perfbench")
WORKLOADS = ("offline_medium", "stream_window", "serve_mixed")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds ricd_perfbench; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no library sources under %s/src" % ROOT, file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ricd_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env)
        except OSError as err:
            print("run.py: %s: %s" % (step[0], err), file=sys.stderr)
            return False
        if done.returncode != 0:
            print("run.py: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=("tiny",))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.scale:
        command += ["--scale", args.scale]
    if args.trace:
        command += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))]
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("run.py: %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3
    except BaseException:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
