// Experiment P1 -- persistence wall times (DESIGN.md §12).
//
// Measures the three storage-layer costs that gate real deployments of the
// closed-form representation: serializing a full database image (snapshot
// save), rebuilding the engine state from it (snapshot load, including the
// exact TupleStore index rebuild), and recovering from a WAL (replay
// through the live Declare/AddTuple ingestion path). The BENCH_p1.json
// report pins all three at 1e5 facts, plus the on-disk byte sizes and the
// store.snapshot.* / store.wal.* counters via the embedded metrics
// snapshot.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/file_util.h"
#include "src/constraints/dbm.h"
#include "src/gdb/database.h"
#include "src/storage/codec.h"
#include "src/storage/snapshot.h"
#include "src/storage/store.h"

namespace {

using lrpdb::AppendableFile;
using lrpdb::Database;
using lrpdb::DataValue;
using lrpdb::Dbm;
using lrpdb::GeneralizedTuple;
using lrpdb::ListDir;
using lrpdb::Lrp;
using lrpdb::RelationSchema;
using lrpdb::RemoveFile;
using lrpdb::Status;
using lrpdb::storage::BatchFact;
using lrpdb::storage::FactBatch;
using lrpdb::storage::PersistentStore;
using lrpdb::storage::ReadSnapshotFile;
using lrpdb::storage::StoreOptions;
using lrpdb::storage::WriteSnapshotFile;

constexpr int kReportFacts = 100000;  // the 1e5-fact headline measurement
constexpr int kBatchFacts = 1000;     // facts per WAL record

void RemoveTree(const std::string& dir) {
  auto entries = ListDir(dir);
  if (entries.ok()) {
    for (const std::string& name : *entries) {
      Status s = RemoveFile(dir + "/" + name);
      (void)s;
    }
  }
  ::rmdir(dir.c_str());
}

std::string BenchDir(const std::string& tag) {
  std::string dir = "bench_p1_" + tag + "_" + std::to_string(::getpid());
  RemoveTree(dir);
  return dir;
}

// `n` periodic facts over ev(time, data): period-24 lrps with a bounded
// window and a pool of 512 data constants — the shape a recurring-event
// database (paper, Section 2.1) actually has.
Database MakeDatabase(int n) {
  Database db;
  LRPDB_CHECK_OK(db.Declare("ev", RelationSchema{1, 1}));
  std::vector<DataValue> pool;
  pool.reserve(512);
  for (int i = 0; i < 512; ++i) {
    pool.push_back(db.Constant("item" + std::to_string(i)));
  }
  for (int i = 0; i < n; ++i) {
    Dbm constraint(1);
    constraint.AddLowerBound(1, i % 97);
    constraint.AddUpperBound(1, i % 97 + 24 * 400);
    GeneralizedTuple tuple({Lrp(24, i % 24)}, {pool[i % 512]}, constraint);
    LRPDB_CHECK_OK(db.AddTuple("ev", std::move(tuple)));
  }
  return db;
}

// The same facts expressed as self-contained WAL batches.
std::vector<FactBatch> MakeBatches(const Database& db) {
  std::vector<FactBatch> batches;
  auto relation = db.Relation("ev");
  LRPDB_CHECK_OK(relation.status());
  FactBatch batch;
  batch.decls.push_back(lrpdb::PredicateDecl{"ev", RelationSchema{1, 1}});
  for (lrpdb::EntryId id : (*relation)->live_ids()) {
    const lrpdb::TupleView tuple = (*relation)->tuple(id);
    BatchFact fact;
    fact.relation = "ev";
    fact.lrps = tuple.lrps().ToVector();
    fact.data = {db.interner().NameOf(tuple.data()[0])};
    fact.constraint = tuple.constraint();
    batch.facts.push_back(std::move(fact));
    if (batch.facts.size() == kBatchFacts) {
      batches.push_back(std::move(batch));
      batch = FactBatch();
    }
  }
  if (!batch.facts.empty()) batches.push_back(std::move(batch));
  return batches;
}

void BM_SnapshotSave(benchmark::State& state) {
  Database db = MakeDatabase(static_cast<int>(state.range(0)));
  std::string dir = BenchDir("save");
  LRPDB_CHECK_OK(lrpdb::CreateDir(dir));
  for (auto _ : state) {
    LRPDB_CHECK_OK(
        WriteSnapshotFile(dir + "/snap", 0, db, /*sync=*/false));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  RemoveTree(dir);
}
BENCHMARK(BM_SnapshotSave)->RangeMultiplier(10)->Range(1000, 100000);

void BM_SnapshotLoad(benchmark::State& state) {
  Database db = MakeDatabase(static_cast<int>(state.range(0)));
  std::string dir = BenchDir("load");
  LRPDB_CHECK_OK(lrpdb::CreateDir(dir));
  LRPDB_CHECK_OK(WriteSnapshotFile(dir + "/snap", 0, db, /*sync=*/false));
  for (auto _ : state) {
    Database loaded;
    auto covered = ReadSnapshotFile(dir + "/snap", &loaded);
    LRPDB_CHECK_OK(covered.status());
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  RemoveTree(dir);
}
BENCHMARK(BM_SnapshotLoad)->RangeMultiplier(10)->Range(1000, 100000);

void BM_WalReplay(benchmark::State& state) {
  Database db = MakeDatabase(static_cast<int>(state.range(0)));
  std::vector<FactBatch> batches = MakeBatches(db);
  std::string dir = BenchDir("replay");
  StoreOptions options;
  options.sync = false;
  {
    Database live;
    auto store = PersistentStore::Open(dir, &live, options);
    LRPDB_CHECK_OK(store.status());
    for (const FactBatch& batch : batches) {
      LRPDB_CHECK_OK(store->AppendBatch(batch));
    }
    LRPDB_CHECK_OK(store->Close());
  }
  for (auto _ : state) {
    Database recovered;
    auto store = PersistentStore::Open(dir, &recovered, options);
    LRPDB_CHECK_OK(store.status());
    LRPDB_CHECK_OK(store->Close());
    benchmark::DoNotOptimize(recovered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  RemoveTree(dir);
}
BENCHMARK(BM_WalReplay)->RangeMultiplier(10)->Range(1000, 100000);

// The headline 1e5-fact measurement, one timed pass each, with fsync on
// for the save/append paths (the durability cost is the honest number).
void WriteReport() {
  LRPDB_TRACE_SPAN(span, "bench.p1.report");
  lrpdb_bench::BenchReport report("p1");
  const std::string id = "p1";
  report.Set("facts", static_cast<int64_t>(kReportFacts));
  report.Set("facts_per_batch", static_cast<int64_t>(kBatchFacts));
  Database db = MakeDatabase(kReportFacts);

  std::string snap_dir = BenchDir("report_snap");
  lrpdb_bench::CheckBenchOk(id, "create snapshot dir",
                            lrpdb::CreateDir(snap_dir));
  report.Time("wall_ms_snapshot_save", [&] {
    lrpdb_bench::CheckBenchOk(
        id, "snapshot save",
        WriteSnapshotFile(snap_dir + "/snap", 0, db, /*sync=*/true));
  });
  auto snap_size = lrpdb::FileSize(snap_dir + "/snap");
  lrpdb_bench::CheckBenchOk(id, "snapshot size", snap_size.status());
  report.Set("snapshot_bytes", static_cast<int64_t>(*snap_size));
  Database loaded;
  report.Time("wall_ms_snapshot_load", [&] {
    auto covered = ReadSnapshotFile(snap_dir + "/snap", &loaded);
    lrpdb_bench::CheckBenchOk(id, "snapshot load", covered.status());
  });
  LRPDB_CHECK(loaded.ToString().size() == db.ToString().size());
  RemoveTree(snap_dir);

  std::vector<FactBatch> batches = MakeBatches(db);
  std::string wal_dir = BenchDir("report_wal");
  StoreOptions options;  // sync = true: the acknowledged-durable cost
  report.Time("wall_ms_wal_append", [&] {
    Database live;
    auto store = PersistentStore::Open(wal_dir, &live, options);
    lrpdb_bench::CheckBenchOk(id, "wal open", store.status());
    for (const FactBatch& batch : batches) {
      lrpdb_bench::CheckBenchOk(id, "wal append", store->AppendBatch(batch));
    }
    lrpdb_bench::CheckBenchOk(id, "wal close", store->Close());
  });
  uint64_t wal_bytes = 0;
  auto entries = ListDir(wal_dir);
  lrpdb_bench::CheckBenchOk(id, "wal list", entries.status());
  for (const std::string& name : *entries) {
    auto size = lrpdb::FileSize(wal_dir + "/" + name);
    lrpdb_bench::CheckBenchOk(id, "wal size", size.status());
    wal_bytes += *size;
  }
  report.Set("wal_bytes", static_cast<int64_t>(wal_bytes));
  uint64_t replayed = 0;
  report.Time("wall_ms_wal_replay", [&] {
    Database recovered;
    auto store = PersistentStore::Open(wal_dir, &recovered, options);
    lrpdb_bench::CheckBenchOk(id, "wal replay", store.status());
    replayed = store->recovery_info().replayed_records;
    lrpdb_bench::CheckBenchOk(id, "wal replay close", store->Close());
  });
  report.Set("replayed_records", static_cast<int64_t>(replayed));
  RemoveTree(wal_dir);
  report.Write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteReport();
  return 0;
}
