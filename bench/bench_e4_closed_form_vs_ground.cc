// Experiment E4 -- the closed-form payoff (paper Sections 1 and 5).
//
// The point of generalized-tuple evaluation is that its cost is independent
// of how much of the infinite timeline a query touches, whereas classical
// tuple-at-a-time evaluation must materialize the window. We run the same
// Example 4.1-style program both ways: the generalized engine once, and the
// ground engine on windows of increasing size H. The ground cost grows
// linearly with H; the generalized cost is flat -- the "who wins" shape the
// paper predicts, with the crossover at a window of just a few periods.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <utility>

#include "bench/bench_json.h"
#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"
#include "src/parser/parser.h"

namespace {

constexpr char kProgram[] = R"(
  .decl course(time, time, data)
  .decl problems(time, time, data)
  .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
  problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
  problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
)";

void BM_GeneralizedClosedForm(benchmark::State& state) {
  lrpdb::Database db;
  auto unit = lrpdb::Parse(kProgram, &db);
  LRPDB_CHECK(unit.ok());
  for (auto _ : state) {
    auto result = lrpdb::Evaluate(unit->program, db);
    LRPDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result->iterations);
  }
  // The closed form answers membership at ANY horizon; report the horizon
  // as infinite-equivalent.
  state.counters["covers_horizon"] =
      benchmark::Counter(1e18, benchmark::Counter::kDefaults);
}
BENCHMARK(BM_GeneralizedClosedForm);

void BM_GroundWindow(benchmark::State& state) {
  lrpdb::Database db;
  auto unit = lrpdb::Parse(kProgram, &db);
  LRPDB_CHECK(unit.ok());
  lrpdb::GroundEvaluationOptions options;
  options.window_lo = 0;
  options.window_hi = state.range(0);
  int64_t facts = 0;
  for (auto _ : state) {
    auto result = lrpdb::EvaluateGround(unit->program, db, options);
    LRPDB_CHECK(result.ok());
    facts = result->facts_derived;
    benchmark::DoNotOptimize(result->iterations);
  }
  state.counters["covers_horizon"] =
      benchmark::Counter(static_cast<double>(state.range(0)),
                         benchmark::Counter::kDefaults);
  state.counters["facts"] = static_cast<double>(facts);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GroundWindow)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 18)
    ->Complexity(benchmark::oN);

// Query-time comparison: membership probes against the closed form vs
// re-deriving the window each time.
void BM_ClosedFormProbe(benchmark::State& state) {
  lrpdb::Database db;
  auto unit = lrpdb::Parse(kProgram, &db);
  LRPDB_CHECK(unit.ok());
  auto result = lrpdb::Evaluate(unit->program, db);
  LRPDB_CHECK(result.ok());
  const lrpdb::GeneralizedRelation& problems = result->Relation("problems");
  lrpdb::DataValue database = db.interner().Find("database");
  int64_t t = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        problems.ContainsGround({t, t + 2}, {database}));
    t += 24;  // Walk the infinite timeline.
  }
}
BENCHMARK(BM_ClosedFormProbe);

void WriteReport() {
  lrpdb::Database db;
  auto unit = lrpdb::Parse(kProgram, &db);
  LRPDB_CHECK(unit.ok()) << unit.status();
  lrpdb_bench::BenchReport report("e4");
  std::optional<lrpdb::EvaluationResult> generalized;
  report.Time("wall_ms_generalized", [&] {
    LRPDB_TRACE_SPAN(span, "bench.e4.report_eval");
    auto r = lrpdb::Evaluate(unit->program, db);
    LRPDB_CHECK(r.ok()) << r.status();
    generalized = std::move(*r);
  });
  report.SetEvaluation(*generalized);
  report.SetProfile(generalized->profile);
  lrpdb::GroundEvaluationOptions options;
  options.window_lo = 0;
  // Largest sweep point: deep in the linear regime, so the reported field
  // tracks the per-fact ground cost rather than fixed setup (the compiled
  // ground kernel pushed the old 1<<14 window under a millisecond).
  options.window_hi = 1 << 18;
  report.Set("ground_window", options.window_hi);
  int64_t facts = 0;
  report.Time("wall_ms_ground_window", [&] {
    auto ground = lrpdb::EvaluateGround(unit->program, db, options);
    LRPDB_CHECK(ground.ok()) << ground.status();
    facts = ground->facts_derived;
  });
  report.Set("ground_facts", facts);
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("E4: closed-form (generalized) vs windowed ground evaluation.\n"
              "Expected shape: BM_GroundWindow time grows ~linearly in the\n"
              "window; BM_GeneralizedClosedForm is flat and covers every "
              "horizon.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteReport();
  return 0;
}
