#!/usr/bin/env python3
"""Builds and runs the one-pass job benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds the
engine and the benchmark (Release) under .bench_build/perfbench; later runs
only rebuild what changed.  NAME is one of the workloads below, or "all" to
run each of them in turn.  The last line of stdout is the result JSON of
the (last) workload; build output goes to stderr.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["sessionize-sortmerge", "usercount-hotkey-epoll", "index-hash-tcp"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
TRACES = ROOT / ".bench_build" / "traces"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    sha = git_sha()
    work = WORK / str(os.getpid())  # this run's alone; removed at exit
    rc = 0
    try:
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            sys.stdout.flush()
            rc = subprocess.run([
                str(BUILD / "perfbench"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--workdir", str(work),
                "--trace-dir", str(TRACES), "--git-sha", sha,
            ]).returncode
            if rc:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
