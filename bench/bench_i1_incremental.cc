// Experiment I1 -- incremental maintenance vs refixpointing (DESIGN.md §13).
//
// The IncrementalEvaluator's pitch is that a live update touches work
// proportional to the delta, not to the model. This bench pins that claim
// at the 1e5-fact scale used by BENCH_p1: one 64-fact AddFacts batch
// against a maintained model vs a full from-scratch refixpoint of the same
// enlarged database (the report fails outright if the speedup is < 10x),
// plus retraction wall times for a 1-fact and a 64-fact batch alongside
// the number of stored entries each one touched (tombstoned EDB facts plus
// over-deleted/re-derived derivations). It also reports what the
// provenance log retains after the initial fixpoint: one origin per
// derived entry, which the report fails without, and bytes that
// ci/validate_bench_json.py bounds.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/constraints/dbm.h"
#include "src/core/incremental.h"
#include "src/gdb/database.h"
#include "src/parser/parser.h"

namespace {

using lrpdb::Database;
using lrpdb::DataValue;
using lrpdb::Dbm;
using lrpdb::FactUpdate;
using lrpdb::GeneralizedTuple;
using lrpdb::IncrementalEvaluator;
using lrpdb::Lrp;
using lrpdb::Parse;
using lrpdb::ParsedUnit;

constexpr int kReportFacts = 100000;  // the 1e5-fact headline measurement
constexpr int kAddBatchFacts = 64;    // one live ingestion batch

// Copy + join over the EDB: every ev fact feeds one derived entry and one
// joined entry, so retraction's touched-derivation count is meaningful and
// the add path exercises both the delta pivot and the index probe.
constexpr char kProgram[] = R"(
  .decl ev(time, data)
  .decl derived(time, data)
  .decl joined(time, data)
  derived(t, N) :- ev(t, N).
  joined(t, N) :- derived(t, N), ev(t, N).
)";

// Fact `i` of the BENCH_p1-shaped EDB: period-24 lrps with a bounded
// window and a pool of 512 data constants. All 1e5 are pairwise distinct
// (the index cycle is lcm(24, 512, 97) > 1e5), so exact-match retraction
// by index is well defined.
GeneralizedTuple MakeFact(int i, Database* db) {
  Dbm constraint(1);
  constraint.AddLowerBound(1, i % 97);
  constraint.AddUpperBound(1, i % 97 + 24 * 400);
  return GeneralizedTuple({Lrp(24, i % 24)},
                          {db->Constant("item" + std::to_string(i % 512))},
                          constraint);
}

void FillDatabase(int n, Database* db) {
  // The parser only declares a relation into the Database at its first
  // .fact; this program carries none, so declare the EDB schema here.
  LRPDB_CHECK_OK(db->Declare("ev", lrpdb::RelationSchema{1, 1}));
  for (int i = 0; i < n; ++i) {
    LRPDB_CHECK_OK(db->AddTuple("ev", MakeFact(i, db)));
  }
}

// Fresh facts guaranteed absent from the stored EDB (new data constants).
std::vector<FactUpdate> MakeAddBatch(int n, Database* db) {
  std::vector<FactUpdate> batch;
  batch.reserve(n);
  for (int i = 0; i < n; ++i) {
    Dbm constraint(1);
    constraint.AddLowerBound(1, i);
    constraint.AddUpperBound(1, i + 24 * 400);
    batch.push_back(FactUpdate{
        "ev", GeneralizedTuple({Lrp(24, i % 24)},
                               {db->Constant("live" + std::to_string(i))},
                               constraint)});
  }
  return batch;
}

std::vector<FactUpdate> MakeRetractBatch(int first, int n, Database* db) {
  std::vector<FactUpdate> batch;
  batch.reserve(n);
  for (int i = first; i < first + n; ++i) {
    batch.push_back(FactUpdate{"ev", MakeFact(i, db)});
  }
  return batch;
}

// Entry census across the EDB stores and the maintained IDB: total slots
// (live + tombstoned) and live entries.
struct EntryCensus {
  int64_t entries = 0;
  int64_t live = 0;
  int64_t dead() const { return entries - live; }
};

EntryCensus Census(const IncrementalEvaluator& inc) {
  EntryCensus census;
  auto count = [&census](const lrpdb::GeneralizedRelation& relation) {
    census.entries += static_cast<int64_t>(relation.size());
    census.live += static_cast<int64_t>(relation.live_size());
  };
  for (const std::string& name : inc.db().RelationNames()) {
    auto rel = inc.db().Relation(name);
    LRPDB_CHECK_OK(rel.status());
    count(**rel);
  }
  for (const auto& [unused, relation] : inc.Result().idb) {
    count(relation);
  }
  return census;
}

// Stored entries a retraction touched: tombstoned (the retracted EDB facts
// plus DRed's over-deleted dependents) + re-inserted (re-derivations).
int64_t TouchedEntries(const EntryCensus& before, const EntryCensus& after) {
  return (after.dead() - before.dead()) + (after.entries - before.entries);
}

// Steady-state maintenance microbench: one add + one retract of the same
// batch against a maintained 1e4-fact model per iteration (the model
// returns to its starting state, so iterations do not drift).
void BM_AddRetractRoundtrip(benchmark::State& state) {
  Database db;
  auto unit = Parse(kProgram, &db);
  LRPDB_CHECK(unit.ok());
  FillDatabase(10000, &db);
  IncrementalEvaluator inc(unit->program, &db);
  LRPDB_CHECK_OK(inc.Initialize());
  std::vector<FactUpdate> batch =
      MakeAddBatch(static_cast<int>(state.range(0)), &db);
  for (auto _ : state) {
    LRPDB_CHECK_OK(inc.AddFacts(batch));
    LRPDB_CHECK_OK(inc.RetractFacts(batch));
    benchmark::DoNotOptimize(inc.at_fixpoint());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_AddRetractRoundtrip)->Arg(1)->Arg(64);

// The headline 1e5-fact measurements, one timed pass each.
void WriteReport() {
  LRPDB_TRACE_SPAN(span, "bench.i1.report");
  lrpdb_bench::BenchReport report("i1");
  const std::string id = "i1";
  report.Set("facts", static_cast<int64_t>(kReportFacts));
  report.Set("add_batch_facts", static_cast<int64_t>(kAddBatchFacts));

  Database db;
  auto unit = Parse(kProgram, &db);
  lrpdb_bench::CheckBenchOk(id, "parse", unit.status());
  FillDatabase(kReportFacts, &db);
  IncrementalEvaluator inc(unit->program, &db);
  report.Time("wall_ms_initial_fixpoint",
              [&] { lrpdb_bench::CheckBenchOk(id, "initialize", inc.Initialize()); });
  report.Set("tuples_live_initial", Census(inc).live);
  // One origin per inserted entry: every derived entry of the initial
  // fixpoint, and nothing for the candidates the stores absorbed.
  int64_t derived_entries = 0;
  for (const auto& [unused, relation] : inc.Result().idb) {
    derived_entries += static_cast<int64_t>(relation.size());
  }
  const lrpdb::ProvenanceLog& log = *inc.provenance();
  report.Set("provenance_records", log.records());
  report.Set("provenance_bytes", log.approx_bytes());
  if (log.records() != derived_entries) {
    lrpdb_bench::FailBench(
        id, "one provenance origin per derived entry",
        lrpdb::InternalError(std::to_string(log.records()) + " origins for " +
                             std::to_string(derived_entries) + " entries"));
  }

  // One 64-fact live batch against the maintained model...
  std::vector<FactUpdate> add = MakeAddBatch(kAddBatchFacts, &db);
  double add_ms = report.Time("wall_ms_add_batch", [&] {
    lrpdb_bench::CheckBenchOk(id, "add batch", inc.AddFacts(add));
  });
  LRPDB_CHECK(inc.at_fixpoint());

  // ...vs refixpointing the identical enlarged database from scratch.
  Database full_db;
  auto full_unit = Parse(kProgram, &full_db);
  lrpdb_bench::CheckBenchOk(id, "parse refixpoint", full_unit.status());
  FillDatabase(kReportFacts, &full_db);
  for (int i = 0; i < kAddBatchFacts; ++i) {
    Dbm constraint(1);
    constraint.AddLowerBound(1, i);
    constraint.AddUpperBound(1, i + 24 * 400);
    LRPDB_CHECK_OK(full_db.AddTuple(
        "ev", GeneralizedTuple({Lrp(24, i % 24)},
                               {full_db.Constant("live" + std::to_string(i))},
                               constraint)));
  }
  IncrementalEvaluator full(full_unit->program, &full_db);
  double full_ms = report.Time("wall_ms_full_refixpoint", [&] {
    lrpdb_bench::CheckBenchOk(id, "full refixpoint", full.Initialize());
  });
  double speedup = add_ms > 0 ? full_ms / add_ms : 0;
  report.Set("speedup_add_vs_refixpoint", speedup);
  // The acceptance bar: a maintained add must beat refixpointing by >= 10x
  // at this scale (it lands orders of magnitude higher in practice).
  if (speedup < 10.0) {
    lrpdb_bench::FailBench(
        id, "add batch speedup >= 10x over full refixpoint",
        lrpdb::InternalError("speedup " + std::to_string(speedup)));
  }

  // Retraction wall time vs how many stored entries the batch touched
  // (tombstoned EDB facts + over-deleted/re-derived dependents).
  EntryCensus before = Census(inc);
  std::vector<FactUpdate> retract1 = MakeRetractBatch(0, 1, &db);
  report.Time("wall_ms_retract_1", [&] {
    lrpdb_bench::CheckBenchOk(id, "retract 1", inc.RetractFacts(retract1));
  });
  EntryCensus after = Census(inc);
  report.Set("touched_entries_retract_1", TouchedEntries(before, after));

  before = after;
  std::vector<FactUpdate> retract64 = MakeRetractBatch(1000, 64, &db);
  report.Time("wall_ms_retract_64", [&] {
    lrpdb_bench::CheckBenchOk(id, "retract 64", inc.RetractFacts(retract64));
  });
  after = Census(inc);
  report.Set("touched_entries_retract_64", TouchedEntries(before, after));
  report.Set("compacted_entries", inc.CompactRetracted());
  report.Set("tuples_live_final", Census(inc).live);
  report.Set("at_fixpoint", inc.at_fixpoint());
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteReport();
  return 0;
}
