#!/usr/bin/env python3
"""Build barracuda-bench and run it.

Usage (paths resolve against the repository root, whatever the cwd):

  python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                           [--trace 0|1] [--smoke] [--out FILE]

NAME is serve-small, table1, detect-dense or detect-contended; without
--workload all four run. --trace 1 runs the per-layer pass instead of
the end-to-end one. The benchmark builds in Release into build-bench/
(incremental after the first run). Build output goes to stderr; the last
line of stdout is barracuda-bench's result JSON. The exit code is
nonzero when the sources are missing, the build fails, or any
correctness gate fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = "build-bench"
WORKLOADS = ("serve-small", "table1", "detect-dense", "detect-contended")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: the repository sources are not next to benchmark/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", "benchmark", "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "barracuda-bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="also write the result document here")
    args = parser.parse_args()

    build()
    cmd = [os.path.join(BUILD, "barracuda-bench"), "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--work-dir", BUILD]
    if args.workload:
        cmd += ["--workload", args.workload]
    if args.trace:
        cmd.append("--traced")
    if args.smoke:
        cmd.append("--smoke")
    if args.out:
        cmd += ["--out", os.path.abspath(args.out)]
    # One workload must finish within three minutes; all four, sized at
    # 20 s each, within ten.
    timeout = 170 if args.workload else 600
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: barracuda-bench exceeded %d s" % timeout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
