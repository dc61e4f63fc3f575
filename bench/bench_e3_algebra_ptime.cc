// Experiment E3 -- the PTIME claim for the generalized-relation algebra.
//
// Section 4.3 relies on [KSW90]: "the intersection, the join, and the
// projection operations on generalized relations can be computed in PTIME".
// These benchmarks grow the number of stored tuples n and report measured
// complexity; google-benchmark's BigO fitting should come out polynomial
// (intersection and join are pairwise, hence ~O(n^2) in tuple count here).
#include <benchmark/benchmark.h>

#include <random>

#include "bench/bench_json.h"
#include "src/common/thread_pool.h"
#include "src/gdb/algebra.h"

namespace {

using lrpdb::Dbm;
using lrpdb::GeneralizedRelation;
using lrpdb::GeneralizedTuple;
using lrpdb::Lrp;

GeneralizedRelation RandomRelation(int tuples, int arity, unsigned seed) {
  std::mt19937 rng(seed);
  // Periods divide 12 so cross-tuple intersections and residue alignments
  // stay within a common period of 12 (the PTIME claim is about the number
  // of tuples, not about coprime-period alignment, which is exponential in
  // the number of distinct prime periods by nature of the representation).
  std::uniform_int_distribution<int> period_index(0, 4);
  const int kPeriods[] = {2, 3, 4, 6, 12};
  auto period = [&](std::mt19937& r) { return kPeriods[period_index(r)]; };
  std::uniform_int_distribution<int> offset(0, 40);
  GeneralizedRelation r({arity, 0});
  for (int i = 0; i < tuples; ++i) {
    std::vector<Lrp> lrps;
    for (int c = 0; c < arity; ++c) lrps.emplace_back(period(rng), offset(rng));
    Dbm constraint(arity);
    int lo = offset(rng);
    constraint.AddLowerBound(1, lo);
    constraint.AddUpperBound(1, lo + 200);
    LRPDB_CHECK_OK(
        r.InsertUnlessEmpty(GeneralizedTuple(std::move(lrps), {}, constraint))
            .status());
  }
  return r;
}

void BM_Intersect(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  GeneralizedRelation a = RandomRelation(n, 2, 1);
  GeneralizedRelation b = RandomRelation(n, 2, 2);
  for (auto _ : state) {
    auto result = lrpdb::Intersect(a, b);
    LRPDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result->size());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Intersect)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_Join(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  GeneralizedRelation a = RandomRelation(n, 2, 3);
  GeneralizedRelation b = RandomRelation(n, 2, 4);
  for (auto _ : state) {
    auto result = lrpdb::JoinOnEqualities(
        a, b, {{.left_column = 1, .right_column = 0, .offset = 0}}, {});
    LRPDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result->size());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Join)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_Project(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  GeneralizedRelation r = RandomRelation(n, 3, 5);
  for (auto _ : state) {
    auto result = lrpdb::Project(r, {0, 2}, {});
    LRPDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result->size());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Project)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_ArityScaling(benchmark::State& state) {
  int arity = static_cast<int>(state.range(0));
  GeneralizedRelation a = RandomRelation(16, arity, 6);
  GeneralizedRelation b = RandomRelation(16, arity, 7);
  for (auto _ : state) {
    auto result = lrpdb::Intersect(a, b);
    LRPDB_CHECK(result.ok());
    benchmark::DoNotOptimize(result->size());
  }
}
BENCHMARK(BM_ArityScaling)->DenseRange(1, 5);

// One timed pass of each operation at the largest benchmarked size.
void WriteReport() {
  constexpr int kTuples = 64;
  LRPDB_TRACE_SPAN(span, "bench.e3.report");
  lrpdb_bench::BenchReport report("e3");
  report.Set("tuples_per_side", static_cast<int64_t>(kTuples));
  GeneralizedRelation a = RandomRelation(kTuples, 2, 1);
  GeneralizedRelation b = RandomRelation(kTuples, 2, 2);
  size_t out = 0;
  report.Time("wall_ms_intersect", [&] {
    auto result = lrpdb::Intersect(a, b);
    LRPDB_CHECK(result.ok());
    out = result->size();
  });
  report.Set("intersect_tuples", out);
  report.Time("wall_ms_join", [&] {
    auto result = lrpdb::JoinOnEqualities(
        a, b, {{.left_column = 1, .right_column = 0, .offset = 0}}, {});
    LRPDB_CHECK(result.ok());
    out = result->size();
  });
  report.Set("join_tuples", out);
  GeneralizedRelation r = RandomRelation(kTuples, 3, 5);
  report.Time("wall_ms_project", [&] {
    auto result = lrpdb::Project(r, {0, 2}, {});
    LRPDB_CHECK(result.ok());
    out = result->size();
  });
  report.Set("project_tuples", out);
  // The algebra itself is single-threaded; the resolved LRPDB_THREADS value
  // is recorded so reports from different thread settings stay apart.
  report.Set("threads",
             static_cast<int64_t>(lrpdb::ThreadPool::DefaultThreads()));
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteReport();
  return 0;
}
