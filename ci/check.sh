#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
#
#   ci/check.sh              plain RelWithDebInfo build + ctest
#   ci/check.sh --sanitize   ASan/UBSan build + ctest (slower; separate tree)
#   ci/check.sh --tsan       TSan build + ctest with LRPDB_TRACE enabled, so
#                            the threaded obs stress tests race the tracer
#   ci/check.sh --bench      additionally run every bench binary once, check
#                            each exits cleanly and writes a BENCH_<id>.json
#                            that passes ci/validate_bench_json.py; reports
#                            and Chrome traces land in <build>/bench-reports
#   ci/check.sh --lint       additionally run the project-invariant lint pass
#                            (ci/lint/run_lint.py) and its fixture self-test,
#                            the doc-path check (ci/check_doc_paths.py: every
#                            repository path DESIGN.md/README.md name exists),
#                            plus clang-tidy over the compile database when
#                            clang-tidy is installed (curated .clang-tidy
#                            profile; skipped with a note otherwise)
#   ci/check.sh --analyze    additionally run the AST/CFG dataflow analyzer
#                            (ci/lint/analyze.py): fixture self-test with the
#                            per-pass disable proof, then the four passes over
#                            the engine tree with findings as errors. Set
#                            LRPDB_REQUIRE_LIBCLANG=1 (CI) to make libclang
#                            engine degradation a hard error instead of a
#                            builtin-engine fallback
#   ci/check.sh --format     additionally run clang-format --dry-run --Werror
#                            over src/, tests/, and bench/ (skipped with a
#                            note when clang-format is not installed)
#   ci/check.sh --faults     fault-injection pass: build ASan and TSan trees
#                            and run the governance + fault-injection +
#                            parallel-evaluator + provenance suites
#                            (exec_context/governance/fault_injection/
#                            parallel_evaluator/provenance) under both, with
#                            leak detection on. Includes the determinism
#                            differentials: the parallel suites assert
#                            bit-identical Explain() dumps and tuple sets
#                            across 1, 2, and 8 worker threads, the
#                            provenance suite asserts identical derivation
#                            logs across the same grid, and the TSan leg
#                            repeats both with LRPDB_THREADS=8 forced into
#                            the environment, and the ASan leg also covers
#                            the storage suites (WAL/snapshot corruption
#                            fixtures plus the storage failpoint walk).
#                            Standalone mode: skips the plain build/ctest
#                            above.
#   ci/check.sh --crash      crash-recovery pass: build an ASan tree and run
#                            the storage suite plus the SIGKILL kill-loop
#                            recovery fuzzer (crash_recovery_test) with
#                            LRPDB_CRASH_ITERS raised to 150 kills per
#                            scenario (450 total), asserting after every
#                            kill that recovery surfaces exactly the
#                            acknowledged batches, in order, with no
#                            unacknowledged garbage. Standalone mode: skips
#                            the plain build/ctest above.
#   ci/check.sh --incremental  incremental-maintenance differential gauntlet:
#                            build an ASan tree and run incremental_test —
#                            108 random programs, each driven through a
#                            random add/retract/compact schedule whose
#                            every step is checked against a from-scratch
#                            refixpoint oracle and for bit-identical stored
#                            dumps across {1, 2, 8} threads — plus the
#                            directed incremental cases, the tombstone and
#                            erase regressions in tuple_store_test, the
#                            provenance renumber cases in provenance_test,
#                            and the live-only image cases in storage_test.
#                            Standalone mode: skips the plain build/ctest
#                            above.
#   ci/check.sh --perfbench  benchmark smoke run: perfbench/run.py builds
#                            its own Release tree (under $CARGO_TARGET_DIR,
#                            or .bench_build/ in the checkout), runs its
#                            --selftest, then a 1-second run of each
#                            workload at seed 1; fails unless every result
#                            line reports "correct": true and "failed": 0.
#                            Standalone mode: skips the plain build/ctest
#                            above.
#   ci/check.sh --help       print this text
#
# Performance is judged by the repo's benchmark, perfbench (BENCHMARK.json),
# in the shipping build: perfbench/steady.py --compare pairs a change
# against its parent on the gated metrics. The --bench binaries report
# timings without gating them; the one exception is bench_i1, which fails
# when a maintained add is not >= 10x faster than a refixpoint.
#
# Flags compose; exit status is nonzero on any failure.
set -euo pipefail

if [[ "${1:-}" == "--help" || "${1:-}" == "-h" ]]; then
  # Print the comment block above (minus shebang) as the usage text.
  awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0"
  exit 0
fi

cd "$(dirname "$0")/.."

sanitize=0
tsan=0
bench=0
lint=0
analyze=0
format=0
faults=0
crash=0
incremental=0
perfbench=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) sanitize=1 ;;
    --tsan) tsan=1 ;;
    --bench) bench=1 ;;
    --lint) lint=1 ;;
    --analyze) analyze=1 ;;
    --format) format=1 ;;
    --faults) faults=1 ;;
    --crash) crash=1 ;;
    --incremental) incremental=1 ;;
    --perfbench) perfbench=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done
if [[ "$sanitize" == 1 && "$tsan" == 1 ]]; then
  echo "--sanitize and --tsan are mutually exclusive" >&2
  exit 2
fi

if [[ "$faults" == 1 ]]; then
  # The fault-injection pass owns its own sanitized trees; it does not
  # compose with --sanitize/--tsan (those rerun the *full* suite instead).
  if [[ "$sanitize" == 1 || "$tsan" == 1 ]]; then
    echo "--faults already builds ASan and TSan trees; drop --sanitize/--tsan" >&2
    exit 2
  fi
  # gtest_discover_tests registers suite-qualified names, so filter on the
  # governance/fault suites themselves. The parallel suites ride along: they
  # carry the determinism differential (ParallelDeterminismTest asserts
  # bit-identical timing-free Explain() dumps and relation dumps across
  # 1, 2, and 8 worker threads) plus worker-side governance unwinding.
  fault_filter='^(ExecContextTest|GovernanceTest|FailpointTest|FaultInjectionWalkTest|ThreadPoolTest|ParallelEvaluatorTest|ProvenanceTest|GroundProvenanceTest|IncrementalTest)\.|ParallelDeterminismTest\.|ProvenanceRandomTest\.|IncrementalRandomTest\.'
  # The storage suites ride the ASan leg: the WAL/snapshot corruption
  # fixtures and the storage failpoint walk (StoreFaultTest) are exactly the
  # unwinding paths leak detection should watch.
  storage_filter='^(Crc32cTest|FileUtilTest|CodecTest|WalTest|SnapshotTest|StoreTest|StoreFaultTest)\.'
  # The incremental gauntlet rides both legs: every schedule step exercises
  # resume evaluation across {1, 2, 8} threads, so ASan watches the DRed
  # unwinding paths and TSan the 8-wide resume rounds.
  parallel_filter='(ThreadPoolTest|ParallelEvaluatorTest|ParallelDeterminismTest)\.|ProvenanceRandomTest\.|IncrementalRandomTest\.'
  echo "== fault injection: ASan"
  cmake -B build-asan -S . -DLRPDB_SANITIZE=ON
  cmake --build build-asan -j"$(nproc)" --target \
    exec_context_test governance_test fault_injection_test \
    parallel_evaluator_test provenance_test storage_test incremental_test
  ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure \
    -R "$fault_filter|$storage_filter"
  echo "== fault injection: TSan"
  cmake -B build-tsan -S . -DLRPDB_SANITIZE=thread
  cmake --build build-tsan -j"$(nproc)" --target \
    exec_context_test governance_test fault_injection_test \
    parallel_evaluator_test provenance_test incremental_test
  TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-tsan --output-on-failure -R "$fault_filter"
  echo "== determinism differential under TSan with LRPDB_THREADS=8 forced"
  # Same parallel suites again with 8 workers forced into the environment:
  # every evaluation that does not pin num_threads now runs 8-wide, so TSan
  # watches the worker pool under the widest supported contention while the
  # determinism assertions re-check the merged results.
  TSAN_OPTIONS="halt_on_error=1" LRPDB_THREADS=8 \
    ctest --test-dir build-tsan --output-on-failure -R "$parallel_filter"
  echo "ci/check.sh --faults: fault-injection pass passed"
  exit 0
fi

if [[ "$crash" == 1 ]]; then
  # The crash-recovery pass owns its own ASan tree, like --faults.
  if [[ "$sanitize" == 1 || "$tsan" == 1 ]]; then
    echo "--crash already builds an ASan tree; drop --sanitize/--tsan" >&2
    exit 2
  fi
  echo "== crash recovery: ASan"
  cmake -B build-asan -S . -DLRPDB_SANITIZE=ON
  cmake --build build-asan -j"$(nproc)" --target storage_test crash_recovery_test
  ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure \
    -R '^(Crc32cTest|FileUtilTest|CodecTest|WalTest|SnapshotTest|StoreTest|StoreFaultTest)\.'
  echo "== SIGKILL kill-loop recovery fuzzer (150 kills per scenario)"
  # The fuzzer forks a writer child, SIGKILLs it at a random point during
  # append/snapshot/compaction (sometimes with a storage failpoint armed to
  # pin the crash to an exact I/O boundary), recovers, and asserts every
  # acknowledged batch is present in order with no unacknowledged garbage.
  # Leak detection stays off for it: children die mid-operation by design.
  ASAN_OPTIONS="detect_leaks=0" LRPDB_CRASH_ITERS=150 \
    ctest --test-dir build-asan --output-on-failure -R '^CrashRecoveryTest\.'
  echo "ci/check.sh --crash: crash-recovery pass passed"
  exit 0
fi

if [[ "$perfbench" == 1 ]]; then
  # The benchmark builds its own Release tree, like --crash builds ASan.
  if [[ "$sanitize" == 1 || "$tsan" == 1 ]]; then
    echo "--perfbench builds its own Release tree; drop --sanitize/--tsan" >&2
    exit 2
  fi
  echo "== perfbench self-test"
  python3 perfbench/run.py --selftest
  for workload in closed_form_eval live_updates durable_ingest; do
    echo "== perfbench $workload (seed 1, 1 s)"
    status=0
    out=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
            --seconds 1 --trace 0) || status=$?
    printf '%s\n' "$out"
    if [[ "$status" != 0 ]]; then
      echo "error: perfbench $workload exited with status $status" >&2
      exit 1
    fi
    # The last stdout line is the result JSON.
    printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit("error: result is not correct with 0 failed operations")
'
  done
  echo "ci/check.sh --perfbench: benchmark smoke run passed"
  exit 0
fi

if [[ "$incremental" == 1 ]]; then
  # The incremental gauntlet owns its own ASan tree, like --crash.
  if [[ "$sanitize" == 1 || "$tsan" == 1 ]]; then
    echo "--incremental already builds an ASan tree; drop --sanitize/--tsan" >&2
    exit 2
  fi
  echo "== incremental maintenance: ASan differential gauntlet"
  cmake -B build-asan -S . -DLRPDB_SANITIZE=ON
  cmake --build build-asan -j"$(nproc)" --target incremental_test \
    tuple_store_test provenance_test storage_test
  # 18 seeds x 6 generated programs = 108 random programs, each pushed
  # through a 6-step random add/retract schedule that compacts after some
  # steps. After every step the maintained model must match a
  # from-scratch refixpoint oracle on the canonical ground window, and the
  # stored dumps must be bit-identical across {1, 2, 8} threads. The
  # directed IncrementalTest cases cover DRed over-delete/re-derive,
  # alternative derivations, retract misses, compaction as erase plus
  # renumber, readers after compaction, and the negation full-recompute
  # fallback; the TupleStoreTest cases cover tombstones and EraseEntries
  # underneath, the ProvenanceTest cases the log's renumber, and the
  # CodecTest/StoreTest cases the live-only snapshot image.
  ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure \
    -R '^(IncrementalTest|TupleStoreTest|ProvenanceTest|ProvenanceDedupTest|ProvenanceRenumberTest|CodecTest|StoreTest)\.|IncrementalRandomTest\.|ProvenanceRandomTest\.'
  echo "ci/check.sh --incremental: incremental-maintenance pass passed"
  exit 0
fi

build_dir=build
cmake_args=()
if [[ "$sanitize" == 1 ]]; then
  build_dir=build-asan
  cmake_args+=(-DLRPDB_SANITIZE=ON)
  # Abort on the first UBSan report instead of printing and continuing.
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=0}"
elif [[ "$tsan" == 1 ]]; then
  build_dir=build-tsan
  cmake_args+=(-DLRPDB_SANITIZE=thread)
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
fi

cmake -B "$build_dir" -S . "${cmake_args[@]}"
# Keep a repo-root compile database for clang tooling (clangd, run_lint.py's
# optional libclang engine). CMAKE_EXPORT_COMPILE_COMMANDS is on in
# CMakeLists.txt, so every configured tree has one.
if [[ -f "$build_dir/compile_commands.json" ]]; then
  cp "$build_dir/compile_commands.json" compile_commands.json
fi
cmake --build "$build_dir" -j"$(nproc)"
if [[ "$tsan" == 1 ]]; then
  # Run the suite with an active trace sink: every span then takes the
  # record path (tracer mutex + shared event buffer), which is exactly what
  # TSan needs to see contended.
  LRPDB_TRACE="$PWD/$build_dir/ctest-trace.json" \
    ctest --test-dir "$build_dir" --output-on-failure
  # Second pass over the parallel-evaluator suites with 8 worker threads
  # forced: maximal pool contention under TSan, with the determinism
  # assertions re-checking the merged results.
  LRPDB_THREADS=8 ctest --test-dir "$build_dir" --output-on-failure \
    -R '(ThreadPoolTest|ParallelEvaluatorTest|ParallelDeterminismTest)\.|ProvenanceRandomTest\.'
else
  ctest --test-dir "$build_dir" --output-on-failure
fi

if [[ "$lint" == 1 ]]; then
  echo "== lint self-test"
  python3 ci/lint/run_lint.py --self-test
  echo "== lint"
  lint_args=()
  if [[ "${LRPDB_REQUIRE_LIBCLANG:-0}" == 1 ]]; then
    # CI installs python3-clang: a degraded (lexical-only) run there means
    # the environment regressed, not that the cross-check is optional.
    lint_args+=(--engine=libclang --require-libclang)
  fi
  python3 ci/lint/run_lint.py "${lint_args[@]}"
  echo "== doc paths"
  python3 ci/check_doc_paths.py --self-test
  python3 ci/check_doc_paths.py
  if command -v clang-tidy > /dev/null; then
    echo "== clang-tidy"
    # The curated profile lives in .clang-tidy (bugprone-*, concurrency-*,
    # performance-*); run-clang-tidy fans out over the compile database.
    tidy_runner=$(command -v run-clang-tidy || command -v run-clang-tidy-14 || true)
    if [[ -n "$tidy_runner" ]]; then
      "$tidy_runner" -quiet -p "$build_dir" "src/.*\.cc$" > /dev/null
    else
      find src -name '*.cc' | xargs clang-tidy -quiet -p "$build_dir"
    fi
  else
    echo "note: clang-tidy not installed; skipping tidy profile" >&2
  fi
fi

if [[ "$analyze" == 1 ]]; then
  echo "== analyze self-test (fixtures + clean-engine run)"
  python3 ci/lint/analyze.py --self-test
  echo "== analyze self-test: per-pass disable proof"
  # Each pass must have a fixture that fails when that pass is disabled —
  # guards against a pass silently degrading into a no-op.
  for pass in $(python3 ci/lint/analyze.py --list-passes); do
    if python3 ci/lint/analyze.py --self-test --no-clean-engine \
         --disable "$pass" > /dev/null 2>&1; then
      echo "error: self-test still passes with --disable $pass" >&2
      exit 1
    fi
  done
  echo "== analyze"
  analyze_args=()
  if [[ "${LRPDB_REQUIRE_LIBCLANG:-0}" == 1 ]]; then
    analyze_args+=(--require-libclang)
  fi
  python3 ci/lint/analyze.py "${analyze_args[@]}"
fi

if [[ "$format" == 1 ]]; then
  if command -v clang-format > /dev/null; then
    echo "== clang-format"
    find src tests bench -name '*.h' -o -name '*.cc' | \
      xargs clang-format --dry-run --Werror
  else
    echo "note: clang-format not installed; skipping --format" >&2
  fi
fi

if [[ "$bench" == 1 ]]; then
  # Stable location (not mktemp) so CI can upload the reports and traces.
  report_dir="$PWD/$build_dir/bench-reports"
  rm -rf "$report_dir"
  mkdir -p "$report_dir"
  for bin in "$build_dir"/bench/bench_*; do
    [[ -x "$bin" && ! -d "$bin" ]] || continue
    name=$(basename "$bin")
    id=${name#bench_}
    id=${id%%_*}
    echo "== $name"
    # Benchmarks emit BENCH_<id>.json into the cwd; collect them per run,
    # with a Chrome trace of the instrumented engine spans alongside.
    (cd "$report_dir" &&
     LRPDB_TRACE="$report_dir/TRACE_${id}.json" \
       "$OLDPWD/$bin" --benchmark_min_time=0.01 > /dev/null) || {
      status=$?
      echo "error: $name exited with status $status" >&2
      echo "error: offending report: $report_dir/BENCH_${id}.json" >&2
      exit 1
    }
    if [[ ! -f "$report_dir/BENCH_${id}.json" ]]; then
      echo "error: $name wrote no report: $report_dir/BENCH_${id}.json" >&2
      exit 1
    fi
  done
  python3 ci/validate_bench_json.py "$report_dir"/BENCH_*.json
  echo "bench reports and traces in $report_dir"
fi

echo "ci/check.sh: all checks passed"
