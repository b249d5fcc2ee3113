#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload chem-compile --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a QuCLEAR source tree. The first call configures and
builds the library and the benchmark in Release mode under .bench_build/;
later calls rebuild incrementally. The benchmark binary prints its
configuration and summary lines, then one JSON object as the last line of
standard output. With --trace 1 the spans are also written to
.bench_build/traces/<workload>-seed<seed>.json (Chrome trace-event format).
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("chem-compile", "qaoa-compile", "parallel-compile", "noise-mc")
# Whole-call limits: a call that configures the build tree may take up to
# FIRST_CALL_S, any other call up to CALL_S.
FIRST_CALL_S = 890
CALL_S = 178


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(deadline, configure):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if configure:
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                               stderr=sys.stderr,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "core", "quclear.hpp"))):
        fail("no QuCLEAR sources next to perfbench/; run from a full checkout")

    configure = not os.path.exists(os.path.join(BUILD, "CMakeCache.txt"))
    deadline = start + (FIRST_CALL_S if configure else CALL_S)
    build(deadline, configure)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                                timeout=CALL_S).returncode)

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--git-sha", git_sha()]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    print("# source digest %s" % source_digest(), flush=True)
    run_start = time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines[-1].startswith("{"):
        fail("benchmark exited with status %d" % r.returncode)
    print("\n".join(lines[:-1]))
    print("# run wall time %.3f s (build check %.3f s)" %
          (time.monotonic() - run_start, run_start - start))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
