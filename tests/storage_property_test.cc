// Randomized save/load round-trip suite for the persistence layer
// (DESIGN.md §12): random programs are parsed and evaluated, the database
// is pushed through the on-disk formats, and the recovered database must
// re-query to the bit-identical model — the same relations in the same
// stored order and the same timing-free EXPLAIN. Two persistence paths are
// exercised:
//
//  * snapshot: one checksummed image, reloaded exactly (interner ids,
//    entry order, generation ranges all preserved);
//  * WAL: the EDB re-ingested as fact batches through a PersistentStore
//    with random snapshot / compaction / crash-free reopen churn in
//    between, then recovered.
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/file_util.h"
#include "src/core/evaluator.h"
#include "src/gdb/database.h"
#include "src/parser/parser.h"
#include "src/storage/codec.h"
#include "src/storage/snapshot.h"
#include "src/storage/store.h"

namespace lrpdb {
namespace storage {
namespace {

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

std::string TestDir() {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "lrpdb_storage_prop_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++);
  RemoveTree(dir);
  return dir;
}

// A model fingerprint (same shape as tests/batch_kernel_test.cc):
// timing-free EXPLAIN plus every relation's dump in stored order.
struct Fingerprint {
  std::string explain;
  std::string relations;
};

Fingerprint FingerprintOver(const Program& program, const Database& db) {
  auto result = Evaluate(program, db);
  EXPECT_TRUE(result.ok()) << result.status();
  Fingerprint fp;
  if (!result.ok()) return fp;
  fp.explain = result->Explain(/*include_timings=*/false);
  for (const auto& [name, relation] : result->idb) {
    fp.relations += name + ":\n" + relation.ToString(&db.interner());
  }
  return fp;
}

// Random programs over a periodic EDB with data columns: chained and
// joined rules, recursion, and (for the snapshot path) constant-pinned
// atoms. `rule_constants` controls whether rule bodies may mention data
// constants: the parser interns those into the AST as DataValue ids, which
// stay valid across a snapshot load (ids are preserved exactly) but not
// across WAL re-ingestion (constants are re-interned by name), so the WAL
// programs keep their rules variable-only.
std::string Generate(std::mt19937& rng, bool rule_constants) {
  std::uniform_int_distribution<int> small(0, 6);
  std::uniform_int_distribution<int> step(1, 12);
  const int period = 24 + 12 * static_cast<int>(rng() % 3);
  const char* values[] = {"\"a\"", "\"b\"", "\"c\""};
  std::string s = R"(
    .decl e(time, data)
    .decl p(time, data)
    .decl q(time, data)
  )";
  const int num_facts = 2 + static_cast<int>(rng() % 3);
  for (int i = 0; i < num_facts; ++i) {
    s += ".fact e(" + std::to_string(period) + "n+" +
         std::to_string(small(rng)) + ", " + values[rng() % 3] + ").\n";
  }
  s += "p(t + " + std::to_string(small(rng)) + ", N) :- e(t, N).\n";
  s += "p(t + " + std::to_string(step(rng)) + ", N) :- p(t, N).\n";
  s += "q(t + " + std::to_string(small(rng)) + ", N) :- p(t, N), e(t + " +
       std::to_string(small(rng)) + ", N).\n";
  if (rng() % 2 == 0) {
    s += "q(t + " + std::to_string(step(rng)) + ", N) :- e(t, N), p(t + " +
         std::to_string(small(rng)) + ", N), q(t, N).\n";
  }
  if (rule_constants && rng() % 2 == 0) {
    s += "q(t + " + std::to_string(small(rng)) + ", M) :- p(t, " +
         values[rng() % 3] + "), e(t + " + std::to_string(small(rng)) +
         ", M).\n";
  }
  if (rng() % 3 == 0) {
    s = ".decl r(time, data)\n" + s;
    s += "r(t, N) :- p(t, N), !q(t, N).\n";
  }
  return s;
}

// Re-expresses the EDB of `db` as self-contained fact batches: the first
// batch carries every declaration, then each relation's entries stream out
// in stored order, split into randomly sized batches.
std::vector<FactBatch> DbToBatches(const Database& db, std::mt19937& rng) {
  std::vector<FactBatch> batches;
  batches.emplace_back();
  for (const std::string& name : db.RelationNames()) {
    auto schema = db.SchemaOf(name);
    EXPECT_TRUE(schema.ok());
    batches[0].decls.push_back(PredicateDecl{name, *schema});
  }
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    EXPECT_TRUE(relation.ok());
    if (!relation.ok()) continue;
    for (size_t i = 0; i < (*relation)->size(); ++i) {
      const GeneralizedTuple& tuple = (*relation)->tuple(i);
      BatchFact fact;
      fact.relation = name;
      fact.lrps = tuple.lrps();
      for (DataValue d : tuple.data()) {
        fact.data.push_back(db.interner().NameOf(d));
      }
      fact.constraint = tuple.constraint();
      if (batches.back().facts.size() >= 1 + rng() % 3) {
        batches.emplace_back();
      }
      batches.back().facts.push_back(std::move(fact));
    }
  }
  return batches;
}

class StorageRoundTripTest : public ::testing::TestWithParam<int> {};

// 25 seeds x 3 programs = 75 snapshot round trips. Each loaded database
// must be an exact image: same text dump, same interner ids, and the same
// model when re-queried.
TEST_P(StorageRoundTripTest, SnapshotRoundTripRequeriesIdentically) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919 + 3);
  for (int iter = 0; iter < 3; ++iter) {
    const std::string text = Generate(rng, /*rule_constants=*/true);
    SCOPED_TRACE(text);
    Database db;
    auto unit = Parse(text, &db);
    ASSERT_TRUE(unit.ok()) << unit.status();

    std::string dir = TestDir();
    ASSERT_TRUE(CreateDir(dir).ok());
    std::string path = dir + "/snap";
    ASSERT_TRUE(WriteSnapshotFile(path, 0, db, /*sync=*/false).ok());
    Database loaded;
    auto covered = ReadSnapshotFile(path, &loaded);
    ASSERT_TRUE(covered.ok()) << covered.status();
    ASSERT_EQ(loaded.ToString(), db.ToString());

    Fingerprint want = FingerprintOver(unit->program, db);
    Fingerprint got = FingerprintOver(unit->program, loaded);
    EXPECT_EQ(got.explain, want.explain);
    EXPECT_EQ(got.relations, want.relations);
    RemoveTree(dir);
  }
}

// 25 seeds x 2 programs = 50 WAL round trips (plus the 75 above: 125
// random programs total). The EDB travels as WAL fact batches through a
// store that randomly snapshots, compacts, and reopens along the way; the
// recovered database must hold the identical EDB and re-query to the
// identical model.
TEST_P(StorageRoundTripTest, WalIngestionRequeriesIdentically) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 104729 + 7);
  for (int iter = 0; iter < 2; ++iter) {
    const std::string text = Generate(rng, /*rule_constants=*/false);
    SCOPED_TRACE(text);
    Database db;
    auto unit = Parse(text, &db);
    ASSERT_TRUE(unit.ok()) << unit.status();
    std::vector<FactBatch> batches = DbToBatches(db, rng);

    std::string dir = TestDir();
    StoreOptions options;
    options.sync = false;
    auto live = std::make_unique<Database>();
    auto store = PersistentStore::Open(dir, live.get(), options);
    ASSERT_TRUE(store.ok()) << store.status();
    for (const FactBatch& batch : batches) {
      ASSERT_TRUE(store->AppendBatch(batch).ok());
      unsigned roll = rng() % 8;
      if (roll == 0) {
        ASSERT_TRUE(store->WriteSnapshot().ok());
      } else if (roll == 1) {
        ASSERT_TRUE(store->Compact().ok());
      } else if (roll == 2) {
        // Crash-free churn: close and recover mid-stream.
        ASSERT_TRUE(store->Close().ok());
        live = std::make_unique<Database>();
        store = PersistentStore::Open(dir, live.get(), options);
        ASSERT_TRUE(store.ok()) << store.status();
      }
    }
    ASSERT_TRUE(store->Close().ok());

    Database recovered;
    auto reopened = PersistentStore::Open(dir, &recovered, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ASSERT_EQ(recovered.ToString(), db.ToString());
    ASSERT_TRUE(reopened->Close().ok());

    // Rules are variable-only here, so the AST is interner-independent and
    // can re-query the recovered database directly.
    Fingerprint want = FingerprintOver(unit->program, db);
    Fingerprint got = FingerprintOver(unit->program, recovered);
    EXPECT_EQ(got.explain, want.explain);
    EXPECT_EQ(got.relations, want.relations);
    RemoveTree(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageRoundTripTest,
                         ::testing::Range(1, 26));

}  // namespace
}  // namespace storage
}  // namespace lrpdb
