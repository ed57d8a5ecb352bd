#!/usr/bin/env python3
"""End-to-end benchmark of cptraffgen.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the library from ../src) into the build
directory ($CARGO_TARGET_DIR, default .bench_build), then runs one workload.
The last line on stdout is the result JSON object; the line before it is a
summary with the host fingerprint, every check, and every metric's samples.
A traced run (--trace 1) also writes its spans as a Chrome trace to
<build>/traces/<workload>-seed<n>.json. --self-test builds and runs the
benchmark's own unit tests instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("long_window", "million_ue", "storm_ranks")
JOBS = "4"


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    out = build_dir()
    configured = any(os.path.exists(os.path.join(out, f))
                     for f in ("Makefile", "build.ninja"))
    steps = []
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", JOBS, "--target", target])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    exe = build("perfbench")
    work = os.path.join(build_dir(), "work",
                        "%s-seed%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--fixtures", os.path.join(HERE, "fixtures"), "--work", work]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perfbench: run failed with exit code %d" % done.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
