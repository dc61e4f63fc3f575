// Ablation benchmarks for the design choices DESIGN.md calls out:
//   A1a  semi-naive deltas vs naive re-derivation in the T_GP engine,
//   A1b  tuple coalescing in residue-splitting operations (projection
//        through a periodic column),
//   A1c  the exact projection fast paths vs the general residue path
//        (measured indirectly: a query whose columns are all period-1
//        hits the fast path; the same query against periodic columns pays
//        for residue splitting).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "bench/bench_json.h"
#include "src/core/evaluator.h"
#include "src/fo/fo.h"
#include "src/gdb/algebra.h"
#include "src/parser/parser.h"

namespace {

std::string EnginesProgram(int64_t period) {
  return R"(
    .decl e(time, time)
    .decl p(time, time)
    .fact e()" +
         std::to_string(period) + "n+8, " + std::to_string(period) +
         R"(n+10) with T2 = T1 + 2.
    p(t1 + 2, t2 + 2) :- e(t1, t2).
    p(t1 + 7, t2 + 7) :- p(t1, t2).
  )";
}

void BM_EngineSemiNaive(benchmark::State& state) {
  lrpdb::Database db;
  auto unit = lrpdb::Parse(EnginesProgram(state.range(0)), &db);
  LRPDB_CHECK(unit.ok());
  lrpdb::EvaluationOptions options;
  options.semi_naive = true;
  for (auto _ : state) {
    auto result = lrpdb::Evaluate(unit->program, db, options);
    LRPDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result->iterations);
  }
}
BENCHMARK(BM_EngineSemiNaive)->Arg(24)->Arg(48)->Arg(96);

void BM_EngineNaive(benchmark::State& state) {
  lrpdb::Database db;
  auto unit = lrpdb::Parse(EnginesProgram(state.range(0)), &db);
  LRPDB_CHECK(unit.ok());
  lrpdb::EvaluationOptions options;
  options.semi_naive = false;
  for (auto _ : state) {
    auto result = lrpdb::Evaluate(unit->program, db, options);
    LRPDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result->iterations);
  }
}
BENCHMARK(BM_EngineNaive)->Arg(24)->Arg(48)->Arg(96);

// Projection whose kept column is all of Z but is linked to a periodic
// dropped column: exercises the residue-splitting path and the coalescing
// pass. Reports output tuple counts as counters.
void BM_ProjectCoalesced(benchmark::State& state) {
  int64_t period = state.range(0);
  lrpdb::GeneralizedRelation r({2, 0});
  lrpdb::Dbm c(2);
  // t2 in [t1 - period, t1 - 1] with t1 on the periodic grid: the windows
  // tile Z, so the exact projection is all of Z: one tuple once coalesced.
  c.AddDifferenceUpperBound(2, 1, -1);
  c.AddDifferenceUpperBound(1, 2, period);
  LRPDB_CHECK_OK(r.InsertIfNew(lrpdb::GeneralizedTuple(
                                   {lrpdb::Lrp(period, 3), lrpdb::Lrp()},
                                   {}, c))
                     .status());
  size_t tuples = 0;
  for (auto _ : state) {
    auto projected = lrpdb::Project(r, {1}, {});
    LRPDB_CHECK(projected.ok()) << projected.status();
    tuples = projected->size();
    benchmark::DoNotOptimize(tuples);
  }
  state.counters["output_tuples"] = static_cast<double>(tuples);
}
BENCHMARK(BM_ProjectCoalesced)->Arg(12)->Arg(60)->Arg(168);

// Fast-path vs residue-path projection: same band constraint, dropped
// column period 1 (fast, exact DBM projection) vs period 168 (residue).
void BM_ProjectDropZColumn(benchmark::State& state) {
  lrpdb::GeneralizedRelation r({2, 0});
  lrpdb::Dbm c(2);
  c.AddDifferenceUpperBound(2, 1, -1);
  c.AddDifferenceUpperBound(1, 2, 5);
  LRPDB_CHECK_OK(r.InsertIfNew(lrpdb::GeneralizedTuple(
                                   {lrpdb::Lrp(), lrpdb::Lrp(168, 3)}, {}, c))
                     .status());
  for (auto _ : state) {
    auto projected = lrpdb::Project(r, {1}, {});
    LRPDB_CHECK(projected.ok());
    benchmark::DoNotOptimize(projected->size());
  }
}
BENCHMARK(BM_ProjectDropZColumn);

void BM_ProjectDropPeriodicColumn(benchmark::State& state) {
  lrpdb::GeneralizedRelation r({2, 0});
  lrpdb::Dbm c(2);
  c.AddDifferenceUpperBound(2, 1, -1);
  c.AddDifferenceUpperBound(1, 2, 5);
  LRPDB_CHECK_OK(r.InsertIfNew(lrpdb::GeneralizedTuple(
                                   {lrpdb::Lrp(168, 3), lrpdb::Lrp()}, {}, c))
                     .status());
  for (auto _ : state) {
    auto projected = lrpdb::Project(r, {1}, {});
    LRPDB_CHECK(projected.ok());
    benchmark::DoNotOptimize(projected->size());
  }
}
BENCHMARK(BM_ProjectDropPeriodicColumn);

void WriteReport() {
  constexpr int64_t kPeriod = 96;
  lrpdb::Database db;
  auto unit = lrpdb::Parse(EnginesProgram(kPeriod), &db);
  LRPDB_CHECK(unit.ok()) << unit.status();
  lrpdb_bench::BenchReport report("a1");
  report.Set("period", kPeriod);
  std::optional<lrpdb::EvaluationResult> result;
  for (bool semi_naive : {true, false}) {
    lrpdb::EvaluationOptions options;
    options.semi_naive = semi_naive;
    report.Time(semi_naive ? "wall_ms_semi_naive" : "wall_ms_naive", [&] {
      LRPDB_TRACE_SPAN(span, "bench.a1.report_eval");
      span.AddArg("semi_naive", semi_naive ? 1 : 0);
      auto r = lrpdb::Evaluate(unit->program, db, options);
      LRPDB_CHECK(r.ok()) << r.status();
      if (semi_naive) result = std::move(*r);
    });
  }
  report.SetEvaluation(*result);
  report.SetProfile(result->profile);
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("A1: ablations -- semi-naive vs naive; coalesced projection; "
              "projection fast path vs residue path.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteReport();
  return 0;
}
