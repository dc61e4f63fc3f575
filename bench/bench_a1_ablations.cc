// Ablation benchmark for a design choice DESIGN.md calls out:
//   A1a  semi-naive deltas vs naive re-derivation in the T_GP engine.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "bench/bench_json.h"
#include "src/core/evaluator.h"
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
  std::printf("A1: ablations -- semi-naive vs naive.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteReport();
  return 0;
}
