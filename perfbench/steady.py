#!/usr/bin/env python3
"""Steadiness tool: runs each workload repeatedly and summarizes the spread.

    python3 perfbench/steady.py [--workload W ...] [--runs 10] [--first-seed 1]
                                [--seconds S] [--save runs.json]
                                [--compare earlier.json]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric -- the ones in BENCHMARK.json and the ungated ones each
workload writes with run.py --metrics-json -- it prints the median, the
quartiles (statistics.quantiles with n=4) and the spread, (q3 - q1) /
median. For a BENCHMARK.json metric it also prints the bound and whether
the spread is within it and below a third of it, the target a steady
benchmark meets.

--save writes every run's metrics to a file; --compare reads such a file and
checks, per workload and BENCHMARK.json metric, that the new median is not
worse than the saved one by more than the bound. Exit status 1 if any run
fails, any spread exceeds its bound, or a comparison fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    """Runs one workload; returns {metric: value} or raises on failure."""
    with tempfile.TemporaryDirectory() as tmp:
        all_metrics = os.path.join(tmp, "metrics.json")
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0", "--metrics-json", all_metrics]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise RuntimeError(
                f"{workload} seed {seed} exited {proc.returncode}")
        with open(all_metrics) as f:
            metrics = {name: m["value"] for name, m in json.load(f).items()}
    result = json.loads(lines[-1])
    metrics["_attempted"] = result["attempted"]
    metrics["_failed"] = result["failed"]
    return metrics


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(new, old, better):
    """Relative amount by which `new` is worse than `old`."""
    if old == 0:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    gated = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                metrics = run_once(workload, seed, args.seconds)
            except RuntimeError as e:
                print(f"FAILED: {e}")
                ok = False
                continue
            if metrics["_failed"]:
                ok = False
            runs[workload].append(metrics)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={metrics[k]:.6g}" for k in gated if k in metrics),
                flush=True)

    for workload, results in runs.items():
        if len(results) < 2:
            continue
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        names = sorted({k for r in results for k in r if not k.startswith("_")},
                       key=lambda k: (k not in gated, k))
        for name in names:
            values = [r[name] for r in results if name in r]
            if len(values) < 2:
                continue
            median, q1, q3, spread = summarize(values)
            if median == 0:  # error_rate, or a layer the workload skips
                print(f"  {name:<16} {median:12.6g} {q1:12.6g} {q3:12.6g}")
                continue
            bound = gated.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                if spread > bound:
                    verdict = "OVER BOUND"
                    ok = False
                else:
                    verdict = "steady" if spread < bound / 3 else "within"
            print(f"  {name:<16} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bound if bound is not None else '':>6}  "
                  f"{verdict}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
        print("\ncomparison with", args.compare)
        for workload, results in runs.items():
            for name, m in gated.items():
                new = [r[name] for r in results if name in r]
                old = [r[name] for r in before.get(workload, []) if name in r]
                if len(new) < 2 or len(old) < 2:
                    continue
                change = worse_by(statistics.median(new), statistics.median(old),
                                  m["better"])
                agree = change <= m["bound"]
                ok = ok and agree
                print(f"  {workload:<18} {name:<14} worse by {change:+8.2%} "
                      f"(bound {m['bound']:.0%}) {'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
