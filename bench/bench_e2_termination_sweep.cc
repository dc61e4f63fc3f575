// Experiment E2 -- Theorems 4.2 / 4.3: iterations to safety.
//
// Theorem 4.2 bounds the lrp periods reachable during evaluation by the
// product of the EDB periods, so free-extension safety arrives within
// finitely many rounds. For the Example 4.1 shape
//     p(t1+2, t2+2) <- e(t1, t2);  p(t1+s, t2+s) <- p(t1, t2)
// over an EDB of period P, the distinct offsets form the coset
// {base + s*k mod P}, of size P / gcd(P, s) -- so the evaluation should
// take exactly P/gcd(P,s) + 1 rounds (the last round confirms subsumption).
// The table sweeps P and s and checks the prediction; the benchmarks time
// evaluation as the orbit length grows.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "bench/bench_json.h"
#include "src/common/math_util.h"
#include "src/core/evaluator.h"
#include "src/parser/parser.h"

namespace {

std::string ProgramFor(int64_t period, int64_t step) {
  return R"(
    .decl e(time, time)
    .decl p(time, time)
    .fact e()" +
         std::to_string(period) + "n+8, " + std::to_string(period) +
         R"(n+10) with T2 = T1 + 2.
    p(t1 + 2, t2 + 2) :- e(t1, t2).
    p(t1 + )" +
         std::to_string(step) + ", t2 + " + std::to_string(step) +
         R"() :- p(t1, t2).
  )";
}

int EvaluateIterations(int64_t period, int64_t step) {
  lrpdb::Database db;
  auto unit = lrpdb::Parse(ProgramFor(period, step), &db);
  LRPDB_CHECK(unit.ok()) << unit.status();
  auto result = lrpdb::Evaluate(unit->program, db);
  LRPDB_CHECK(result.ok()) << result.status();
  LRPDB_CHECK(result->reached_fixpoint);
  return result->iterations;
}

void PrintSweep() {
  std::printf("E2: iterations to fixpoint vs EDB period P and rule "
              "increment s\n");
  std::printf("%-8s %-8s %-12s %-14s %s\n", "P", "s", "orbit P/gcd",
              "iterations", "matches P/gcd+1");
  for (int64_t period : {24, 48, 96, 168, 240}) {
    for (int64_t step : {7, 24, 36, 48, 60}) {
      int64_t orbit = period / lrpdb::Gcd(period, step);
      int iterations = EvaluateIterations(period, step);
      std::printf("%-8ld %-8ld %-12ld %-14d %s\n", static_cast<long>(period),
                  static_cast<long>(step), static_cast<long>(orbit),
                  iterations, iterations == orbit + 1 ? "yes" : "NO");
    }
  }
  std::printf("\n");
}

void BM_TerminationSweep(benchmark::State& state) {
  int64_t period = state.range(0);
  int64_t step = 1;  // Worst case: orbit length == period.
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateIterations(period, step));
  }
  state.counters["orbit"] =
      static_cast<double>(period / lrpdb::Gcd(period, step));
}
BENCHMARK(BM_TerminationSweep)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// One timed evaluation at the largest sweep point (P=128, s=1), with the
// storage-engine counters, to BENCH_e2.json.
void WriteReport() {
  constexpr int64_t kPeriod = 128;
  lrpdb::Database db;
  auto unit = lrpdb::Parse(ProgramFor(kPeriod, 1), &db);
  LRPDB_CHECK(unit.ok()) << unit.status();
  lrpdb_bench::BenchReport report("e2");
  report.Set("largest_sweep_period", kPeriod);
  // Repeated so wall_ms lands well clear of scheduler noise: a single
  // evaluation is sub-millisecond in Release builds.
  constexpr int kRepetitions = 25;
  std::optional<lrpdb::EvaluationResult> result;
  double ms = report.Time("wall_ms", [&] {
    LRPDB_TRACE_SPAN(span, "bench.e2.report_eval");
    for (int rep = 0; rep < kRepetitions; ++rep) {
      auto r = lrpdb::Evaluate(unit->program, db);
      LRPDB_CHECK(r.ok()) << r.status();
      result = std::move(*r);
    }
  });
  report.Set("repetitions", kRepetitions);
  report.SetEvaluation(*result);
  report.SetProfile(result->profile);
  report.Set("per_round_us",
             ms * 1000.0 / kRepetitions / result->iterations);
  // Resolved worker count (LRPDB_THREADS), so a reader can tell which mode
  // produced the timings.
  report.Set("threads", result->threads);
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  PrintSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteReport();
  return 0;
}
