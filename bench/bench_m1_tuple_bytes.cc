// M1 -- where a stored generalized tuple's bytes go.
//
// The paper's point is a small finite representation (Section 2.1): a
// generalized tuple of temporal arity m and data arity k is m lrps, k
// constants and a difference-bound matrix. This bench measures what the
// TupleStore spends per stored tuple in the closed_form_eval shape (m = 1,
// k = 2: one lrp of period 168, two data columns, a lower bound), two ways:
//
//  * a synthetic store filled through Insert, about one signature in
//    twelve holding a second entry in a disjoint window;
//  * the IDB of a small copy + recursive-shift evaluation
//        p(t, X, Y) :- e(t, X, Y).   p(t + 48, X, Y) :- p(t, X, Y).
//    whose orbit gives every EDB fact seven signatures.
//
// For each it reports bytes per stored tuple by structure
// (TupleStore::footprint(): rows, signature table, postings, id
// lists) and the ratio of approx_bytes() to the C heap's own count, the
// mallinfo2() delta around the build. ci/validate_bench_json.py holds both
// ratios to [0.75, 1.25] and the synthetic store to at most 120 B per
// stored tuple.
// The heap figures need glibc's allocator: a sanitizer build reports
// "heap_measured": false and omits them. The google-benchmark sweep times
// the synthetic fill.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/bench_json.h"
#include "src/core/evaluator.h"
#include "src/gdb/tuple_store.h"
#include "src/parser/parser.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LRPDB_BENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LRPDB_BENCH_SANITIZED 1
#endif

namespace {

using lrpdb::Dbm;
using lrpdb::GeneralizedTuple;
using lrpdb::Lrp;
using lrpdb::TupleStore;

constexpr int kStoreTuples = 50000;
constexpr int kEdbFacts = 5000;

#if defined(__GLIBC__) && !defined(LRPDB_BENCH_SANITIZED)
constexpr bool kHeapMeasured = true;
int64_t HeapInUse() {
  const auto info = ::mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}
#else
constexpr bool kHeapMeasured = false;
int64_t HeapInUse() { return 0; }
#endif

// Tuple `i` of the synthetic fill: 168n+slot with two data values and a
// lower bound; every twelfth repeats the previous signature in a window
// that ends before the previous one begins.
GeneralizedTuple ShapeTuple(int i) {
  const bool second = i % 12 == 11;
  const int base = second ? i - 1 : i;
  Dbm window(1);
  window.AddLowerBound(1, base % 50 - (second ? 1000 : 0));
  if (second) window.AddUpperBound(1, base % 50 - 500);
  return GeneralizedTuple({Lrp(168, base % 168)}, {base % 97, base / 168},
                          window);
}

void Fill(int n, TupleStore* store) {
  for (int i = 0; i < n; ++i) {
    auto outcome = store->Insert(ShapeTuple(i));
    lrpdb_bench::CheckBenchOk("m1", "synthetic insert", outcome.status());
  }
}

void BM_SyntheticFill(benchmark::State& state) {
  for (auto _ : state) {
    TupleStore store({1, 2});
    Fill(static_cast<int>(state.range(0)), &store);
    benchmark::DoNotOptimize(store.size());
  }
}
BENCHMARK(BM_SyntheticFill)->Arg(10000)->Unit(benchmark::kMillisecond);

std::string Program(int facts) {
  std::string s =
      ".decl e(time, data, data)\n"
      ".decl p(time, data, data)\n"
      "p(t, X, Y) :- e(t, X, Y).\n"
      "p(t + 48, X, Y) :- p(t, X, Y).\n";
  for (int i = 0; i < facts; ++i) {
    s += ".fact e(168n+" + std::to_string(i % 168) + ", \"p" +
         std::to_string(i % 97) + "\", \"s" + std::to_string(i / 168) +
         "\") with T1 >= " + std::to_string(i % 50) + ".\n";
  }
  return s;
}

// Per-tuple bytes of `f` for `tuples` stored tuples, and the heap ratio.
void Report(const std::string& prefix, const TupleStore::Footprint& f,
            int64_t tuples, int64_t heap, lrpdb_bench::BenchReport* report) {
  const double n = static_cast<double>(tuples);
  report->Set(prefix + "_tuples", tuples);
  report->Set(prefix + "_rows_bytes_per_tuple", f.rows / n);
  report->Set(prefix + "_signatures_bytes_per_tuple", f.signatures / n);
  report->Set(prefix + "_postings_bytes_per_tuple", f.postings / n);
  report->Set(prefix + "_id_lists_bytes_per_tuple", f.id_lists / n);
  report->Set(prefix + "_approx_bytes_per_tuple", f.total() / n);
  if (kHeapMeasured) {
    report->Set(prefix + "_heap_bytes_per_tuple", heap / n);
    report->Set(prefix + "_approx_to_heap",
                static_cast<double>(f.total()) / static_cast<double>(heap));
  }
}

void WriteReport() {
  lrpdb_bench::BenchReport report("m1");
  report.Set("heap_measured", kHeapMeasured);
  {
    const int64_t before = HeapInUse();
    TupleStore store({1, 2});
    Fill(kStoreTuples, &store);
    const int64_t heap = HeapInUse() - before;
    report.Set("store_signatures", store.num_signatures());
    Report("store", store.footprint(), static_cast<int64_t>(store.size()),
           heap, &report);
  }
  {
    lrpdb::Database db;
    auto unit = lrpdb::Parse(Program(kEdbFacts), &db);
    lrpdb_bench::CheckBenchOk("m1", "parse", unit.status());
    const int64_t before = HeapInUse();
    auto result = lrpdb::Evaluate(unit->program, db);
    const int64_t heap = HeapInUse() - before;
    lrpdb_bench::CheckBenchOk("m1", "evaluate", result.status());
    TupleStore::Footprint sum;
    for (const auto& [name, relation] : result->idb) {
      const TupleStore::Footprint f = relation.footprint();
      sum.rows += f.rows;
      sum.signatures += f.signatures;
      sum.postings += f.postings;
      sum.id_lists += f.id_lists;
    }
    report.Set("eval_rounds", static_cast<int64_t>(result->iterations));
    Report("eval", sum, static_cast<int64_t>(result->TuplesStored()), heap,
           &report);
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
