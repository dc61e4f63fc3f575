#!/usr/bin/env python3
"""Validates BENCH_<id>.json reports against the bench_json.h contract.

Usage: ci/validate_bench_json.py BENCH_*.json

Schema version 2 (bench/bench_json.h): a single JSON object with
  "bench"           the bench id (non-empty string),
  "schema_version"  an integer >= 2,
  "metrics"         {"counters": {...}, "gauges": {...}, "histograms": {...}}
where "counters" is non-empty (every report writer bumps
bench.reports_written), so reports from an LRPDB_NO_METRICS build fail.

A report with a bench-specific bound (BENCH_BOUNDS below) must carry each
bounded field within it: the m1 tuple-bytes report holds the store's
approx_bytes() within 25% of the C heap's count and the synthetic m = 1,
k = 2 store to at most 120 B per stored tuple, and the i1 incremental
report holds the provenance log its 1e5-fact initial fixpoint retains to
at most 10 MB (one origin per derived entry). A report that says it could
not read the heap ("heap_measured": false, a sanitizer build) skips them.

Every metric name must fall under a known engine namespace (KNOWN_PREFIXES
below, including the provenance counters eval.prov.*): a typo'd or stale
name in an instrumentation site would otherwise ship silently in CI
artifacts. Adding a new subsystem means adding its prefix here.

Exits nonzero naming the offending file on the first violation.
"""

import json
import sys

KNOWN_PREFIXES = (
    "bench.",
    "datalog1s.",
    "eval.",       # includes eval.batch.*, eval.prov.*,
                   # and the incremental-maintenance counters eval.inc.*
    "exec.",
    "gdb.",
    "store.",      # includes store.snapshot.*, store.wal.*, store.compact.*
    "templog.",
)

# bench id -> {field: (lowest, highest)}, checked when the report measured
# the heap.
BENCH_BOUNDS = {
    "m1": {
        "store_approx_to_heap": (0.75, 1.25),
        "eval_approx_to_heap": (0.75, 1.25),
        "store_heap_bytes_per_tuple": (0.0, 120.0),
    },
    "i1": {
        "provenance_bytes": (1, 10e6),  # empty would mean nothing recorded
    },
}


def fail(path, message):
    print(f"validate_bench_json: {path}: {message}", file=sys.stderr)
    sys.exit(1)


def validate(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"not readable as JSON: {e}")
    if not isinstance(report, dict):
        fail(path, "top level is not a JSON object")

    bench = report.get("bench")
    if not isinstance(bench, str) or not bench:
        fail(path, '"bench" missing or not a non-empty string')

    version = report.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        fail(path, '"schema_version" missing or not an integer')
    if version < 2:
        fail(path, f'"schema_version" is {version}, expected >= 2')

    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        fail(path, '"metrics" missing or not an object')
    for kind in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(kind), dict):
            fail(path, f'"metrics.{kind}" missing or not an object')
        for name in metrics[kind]:
            if not name.startswith(KNOWN_PREFIXES):
                fail(path, f'{kind[:-1]} "{name}" is outside the known '
                           f'metric namespaces {KNOWN_PREFIXES}')
    counters = metrics["counters"]
    if not counters:
        fail(path, '"metrics.counters" is empty (instrumentation inactive?)')
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool):
            fail(path, f'counter "{name}" is not an integer')
        if value < 0:
            fail(path, f'counter "{name}" is negative ({value})')
    for name, data in metrics["histograms"].items():
        if not isinstance(data, dict) or "count" not in data \
                or "sum" not in data or not isinstance(data.get("buckets"),
                                                       dict):
            fail(path, f'histogram "{name}" malformed')
        bucket_total = sum(data["buckets"].values())
        if bucket_total != data["count"]:
            fail(path, f'histogram "{name}" bucket counts sum to '
                       f'{bucket_total}, expected count={data["count"]}')
    bounds = BENCH_BOUNDS.get(bench, {})
    if bounds and report.get("heap_measured", True):
        for field, (lo, hi) in bounds.items():
            value = report.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                fail(path, f'"{field}" missing or not a number')
            if not lo <= value <= hi:
                fail(path, f'"{field}" is {value}, outside [{lo}, {hi}]')
    print(f"ok: {path} (bench={bench}, schema_version={version}, "
          f"{len(counters)} counters)")


def main(argv):
    args = argv[1:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    for path in args:
        validate(path)
    print(f"validate_bench_json: {len(args)} report(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
