// Experiment E3 -- the PTIME claim for the generalized-relation algebra.
//
// Section 4.3 relies on [KSW90]: "the intersection, the join, and the
// projection operations on generalized relations can be computed in PTIME".
// These benchmarks grow the number of stored tuples n and report measured
// complexity; google-benchmark's BigO fitting should come out polynomial
// (intersection and join are pairwise, hence ~O(n^2) in tuple count here).
// Each operation runs as the first-order query that ships it (src/fo/fo.h):
// one clause through the evaluators' join kernel.
#include <benchmark/benchmark.h>

#include <map>
#include <random>
#include <string>

#include "bench/bench_json.h"
#include "src/fo/fo.h"

namespace {

using lrpdb::Dbm;
using lrpdb::GeneralizedRelation;
using lrpdb::GeneralizedTuple;
using lrpdb::Lrp;
using Relations = std::map<std::string, GeneralizedRelation>;

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
    r.InsertUnlessEmpty(GeneralizedTuple(std::move(lrps), {}, constraint));
  }
  return r;
}

// "t1, ..., tk".
std::string Columns(int arity) {
  std::string s;
  for (int c = 1; c <= arity; ++c) {
    if (c > 1) s += ", ";
    s += "t" + std::to_string(c);
  }
  return s;
}

// A parsed FO query over `relations`, evaluated on demand.
class Query {
 public:
  Query(const std::string& source, const Relations& relations)
      : relations_(relations) {
    std::map<std::string, lrpdb::RelationSchema> schemas;
    for (const auto& [name, relation] : relations) {
      schemas.emplace(name, relation.schema());
    }
    auto query = lrpdb::ParseFoQuery(source, &db_, &schemas);
    LRPDB_CHECK(query.ok()) << query.status();
    query_ = std::move(*query);
  }

  // The answer's tuple count.
  size_t Run() const {
    lrpdb::FoOptions options;
    options.extra_relations = &relations_;
    auto result = lrpdb::EvaluateFoQuery(query_, db_, options);
    LRPDB_CHECK(result.ok()) << result.status();
    return result->relation.size();
  }

 private:
  const Relations& relations_;
  lrpdb::Database db_;
  lrpdb::FoQuery query_;
};

// The intersection a & b, the join a.t2 = b.t1 and the projection of r's
// middle column, over the relations each is timed on.
const char kIntersect[] = "a(t1, t2) & b(t1, t2)";
const char kJoin[] = "a(t1, t2) & b(t2, t3)";
const char kProject[] = "exists t2 (r(t1, t2, t3))";

Relations Pair(int n, int arity, unsigned seed_a, unsigned seed_b) {
  Relations relations;
  relations.emplace("a", RandomRelation(n, arity, seed_a));
  relations.emplace("b", RandomRelation(n, arity, seed_b));
  return relations;
}

void BM_Intersect(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const Relations relations = Pair(n, 2, 1, 2);
  const Query query(kIntersect, relations);
  for (auto _ : state) benchmark::DoNotOptimize(query.Run());
  state.SetComplexityN(n);
}
BENCHMARK(BM_Intersect)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_Join(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  const Relations relations = Pair(n, 2, 3, 4);
  const Query query(kJoin, relations);
  for (auto _ : state) benchmark::DoNotOptimize(query.Run());
  state.SetComplexityN(n);
}
BENCHMARK(BM_Join)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_Project(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Relations relations;
  relations.emplace("r", RandomRelation(n, 3, 5));
  const Query query(kProject, relations);
  for (auto _ : state) benchmark::DoNotOptimize(query.Run());
  state.SetComplexityN(n);
}
BENCHMARK(BM_Project)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_ArityScaling(benchmark::State& state) {
  int arity = static_cast<int>(state.range(0));
  const Relations relations = Pair(16, arity, 6, 7);
  const Query query(
      "a(" + Columns(arity) + ") & b(" + Columns(arity) + ")", relations);
  for (auto _ : state) benchmark::DoNotOptimize(query.Run());
}
BENCHMARK(BM_ArityScaling)->DenseRange(1, 5);

// One timed pass of each operation at the largest benchmarked size.
void WriteReport() {
  constexpr int kTuples = 64;
  LRPDB_TRACE_SPAN(span, "bench.e3.report");
  lrpdb_bench::BenchReport report("e3");
  report.Set("tuples_per_side", static_cast<int64_t>(kTuples));
  const Relations pair = Pair(kTuples, 2, 1, 2);
  Relations single;
  single.emplace("r", RandomRelation(kTuples, 3, 5));
  struct Entry {
    const char* time_key;
    const char* size_key;
    const char* source;
    const Relations* relations;
  };
  const Entry entries[] = {
      {"wall_ms_intersect", "intersect_tuples", kIntersect, &pair},
      {"wall_ms_join", "join_tuples", kJoin, &pair},
      {"wall_ms_project", "project_tuples", kProject, &single},
  };
  for (const Entry& entry : entries) {
    const Query query(entry.source, *entry.relations);
    size_t out = 0;
    report.Time(entry.time_key, [&] { out = query.Run(); });
    report.Set(entry.size_key, out);
  }
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteReport();
  return 0;
}
