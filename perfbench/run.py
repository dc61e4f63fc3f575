#!/usr/bin/env python3
"""Builds the lrpdb benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--metrics-json <file>]
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the library from ../src in the shipping
configuration: Release, default options) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the benchmark binary. Build
output goes to stderr, so the last line of stdout is the binary's JSON
result. Exits non-zero, without a result line, when the build fails, and
with the binary's exit code otherwise. --metrics-json also writes every
end-to-end metric, the ungated ones included, to that file as JSON.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("closed_form_eval", "live_updates", "durable_ingest")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build(out):
    """Configures once, then builds incrementally. Returns True on success."""
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    step = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
            "perfbench_selftest"]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--metrics-json")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    if not build(out):
        print("build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode

    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work]
    if args.metrics_json:
        command += ["--metrics-json", os.path.abspath(args.metrics_json)]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the child when the timeout expires.
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
