#!/usr/bin/env bash
# Perf-regression gate: Release bench build, two runs, one comparison.
#
#   ci/bench_gate.sh            build + run + gate against bench/baseline/
#   ci/bench_gate.sh --update   same, then rewrite the committed baselines
#                               from this machine's threads=1 run (do this
#                               only on the runner class CI gates on, after
#                               an intentional perf change; commit the diff
#                               under bench/baseline/ with a justification)
#
# What it does:
#  1. Configures build-bench-gate as Release with LRPDB_NO_METRICS,
#     LRPDB_NO_FAILPOINTS, and LRPDB_NO_PROVENANCE: the gate times the
#     engine, not the instrumentation — a disarmed failpoint load is still
#     a load, and provenance recording is opt-in per evaluation anyway.
#  2. Runs the evaluation-shaped benches (bench_e2, bench_e3, bench_e4,
#     bench_i1) twice:
#     LRPDB_THREADS=1 (the gated run — deterministic, machine-independent
#     thread shape) and LRPDB_THREADS=max (informational: the parallel
#     speedup on this machine, printed but never gated).
#  3. Validates every report against the bench_json.h schema
#     (--allow-empty-counters: this is an uninstrumented build).
#  4. ci/compare_bench.py fails the gate on any wall_ms* field more than
#     25% over its committed baseline in bench/baseline/.
#
# Reports land in build-bench-gate/gate-reports/{t1,tmax}/ for CI upload.
set -euo pipefail

cd "$(dirname "$0")/.."

update=0
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

build_dir=build-bench-gate
# bench_i1 gates the incremental-maintenance walls (and aborts itself if a
# maintained AddFacts is not >= 10x faster than a full refixpoint at 1e5
# facts). In this LRPDB_NO_PROVENANCE build its retract fields measure the
# documented full-recompute fallback.
gate_benches=(bench_e2_termination_sweep bench_e3_algebra_ptime
              bench_e4_closed_form_vs_ground bench_i1_incremental)

echo "== bench gate: Release build (LRPDB_NO_METRICS, LRPDB_NO_FAILPOINTS, LRPDB_NO_PROVENANCE)"
cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=Release \
  -DLRPDB_NO_METRICS=ON -DLRPDB_NO_FAILPOINTS=ON -DLRPDB_NO_PROVENANCE=ON
cmake --build "$build_dir" -j"$(nproc)" --target "${gate_benches[@]}"

report_root="$PWD/$build_dir/gate-reports"
rm -rf "$report_root"
run_benches() {  # $1 = subdir, $2 = LRPDB_THREADS value
  local dir="$report_root/$1"
  mkdir -p "$dir"
  for bin in "${gate_benches[@]}"; do
    local id=${bin#bench_}
    id=${id%%_*}
    echo "== $bin (LRPDB_THREADS=$2)"
    (cd "$dir" &&
     LRPDB_THREADS="$2" "$OLDPWD/$build_dir/bench/$bin" \
       --benchmark_min_time=0.01 > /dev/null) || {
      echo "error: $bin failed at LRPDB_THREADS=$2" >&2
      exit 1
    }
  done
}

run_benches t1 1
run_benches tmax max

# Uninstrumented build: counters are legitimately empty.
python3 ci/validate_bench_json.py --allow-empty-counters \
  "$report_root"/t1/BENCH_*.json "$report_root"/tmax/BENCH_*.json

echo "== parallel speedup (informational, not gated; 1-core runners show ~1x)"
python3 - "$report_root" <<'EOF'
import json, sys, os
root = sys.argv[1]
for name in sorted(os.listdir(os.path.join(root, "t1"))):
    t1 = json.load(open(os.path.join(root, "t1", name)))
    tm = json.load(open(os.path.join(root, "tmax", name)))
    for key, base in t1.items():
        if key.startswith("wall_ms") and isinstance(base, (int, float)):
            par = tm.get(key)
            if isinstance(par, (int, float)) and par > 0:
                print(f"  {name} {key}: t1={base:.3f}ms "
                      f"tmax={par:.3f}ms speedup={base / par:.2f}x "
                      f"(tmax threads={tm.get('threads')})")
EOF

if [[ "$update" == 1 ]]; then
  python3 ci/compare_bench.py --update "$report_root"/t1/BENCH_*.json
else
  python3 ci/compare_bench.py "$report_root"/t1/BENCH_*.json
fi
echo "ci/bench_gate.sh: done"
