// Crash-recovery fuzzer (DESIGN.md §12): a forked writer child appends
// acknowledged batches (fsync'd WAL records, sync = true) in a tight loop,
// interleaved with snapshots and compaction, while the parent SIGKILLs it
// at a random moment — landing mid-append, mid-snapshot-publish, or
// mid-compaction. Some children instead arm a random storage failpoint and
// _exit the instant it fires, pinning the crash to an exact I/O boundary.
// After every kill the parent recovers the directory in-process and checks
// the durability contract:
//
//   * recovery always succeeds (a crash state is never corruption);
//   * every acknowledged batch is present;
//   * no unacknowledged garbage is visible: the surviving facts are
//     exactly batches 1..M for some M >= the last ack, in append order,
//     and the recovered sequence cursor agrees (next_seq == M + 1);
//   * TupleStore::CheckConsistency passes on every recovered relation.
//
// The retract scenario interleaves retract records with the appends; its
// invariant is stronger: the recovered database must be bit-identical (as
// an encoded image: entries, order, tombstones, interner) to an offline
// replay of the durable record prefix.
//
// The kill loop runs 70 iterations per scenario x 4 scenarios = 280
// random-kill iterations by default; ci/check.sh --crash raises it via
// LRPDB_CRASH_ITERS.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/failpoint.h"
#include "src/common/file_util.h"
#include "src/constraints/dbm.h"
#include "src/gdb/database.h"
#include "src/storage/codec.h"
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

std::string TestDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "lrpdb_crash_" + tag + "_" +
                    std::to_string(::getpid());
  RemoveTree(dir);
  return dir;
}

// Manual decimal parse (the repo bans std::sto*); returns false on any
// non-digit or empty input.
bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

int IterationsPerScenario() {
  const char* env = ::getenv("LRPDB_CRASH_ITERS");
  uint64_t v = 0;
  if (env != nullptr && ParseU64(env, &v) && v > 0) {
    return static_cast<int>(v);
  }
  return 70;
}

// Batch `id`: declares r(time, data) and adds the one ground fact
// r(id, "c<id>") — so the visible fact set names exactly the durable
// sequence numbers, and the append order is checkable from entry order.
FactBatch MakeBatch(uint64_t id) {
  FactBatch batch;
  batch.decls.push_back(PredicateDecl{"r", RelationSchema{1, 1}});
  BatchFact fact;
  fact.relation = "r";
  fact.lrps = {Lrp()};
  fact.data = {"c" + std::to_string(id)};
  Dbm dbm(1);
  dbm.AddUpperBound(1, static_cast<int64_t>(id));
  dbm.AddLowerBound(1, static_cast<int64_t>(id));
  fact.constraint = dbm;
  batch.facts.push_back(std::move(fact));
  return batch;
}

struct Scenario {
  const char* tag;
  int snapshot_every;  // WriteSnapshot every N appends (0 = never)
  int compact_every;   // Compact every N appends (0 = never)
  // Every sequence number divisible by this becomes a retract record
  // (tombstoning the fact appended at the previous sequence number)
  // instead of a fact batch; 0 = append-only. The schedule is a pure
  // function of the sequence number so an offline replay can reproduce
  // the exact durable state of any prefix.
  int retract_every = 0;
};

// Storage failpoints a child may crash at. Listed statically because the
// child picks one before touching the store (sites register on first
// execution).
const char* const kCrashSites[] = {
    "storage.file.open",   "storage.file.read",     "storage.file.write",
    "storage.file.sync",   "storage.file.rename",   "storage.file.remove",
    "storage.file.truncate", "storage.dir.create",  "storage.dir.sync",
    "storage.dir.list",    "storage.wal.open",      "storage.wal.append",
    "storage.snapshot.write", "storage.snapshot.read",
    "storage.store.open",  "storage.store.append_batch",
    "storage.store.append_retract_batch",
    "storage.store.write_snapshot", "storage.store.compact",
};

// The retract record for sequence `id`: tombstones the single fact the
// batch at sequence `id - 1` appended (decls stay empty — retraction never
// declares). With retract_every >= 3 the previous record is always a fact
// batch, so the retraction always matches a live entry.
FactBatch MakeRetract(uint64_t id) {
  FactBatch batch = MakeBatch(id - 1);
  batch.decls.clear();
  return batch;
}

// The writer child: recover, then append acknowledged batches until
// killed. Never returns. Acks are written to `acks_path` only after
// AppendBatch returned OK (i.e. after the record was fsync'd), so the ack
// file is always a lower bound on the durable state.
[[noreturn]] void WriterChild(const std::string& dir,
                              const std::string& acks_path,
                              const Scenario& scenario, unsigned seed,
                              bool arm_failpoint) {
  std::mt19937 rng(seed);
  if (arm_failpoint) {
    const char* site =
        kCrashSites[rng() % (sizeof(kCrashSites) / sizeof(kCrashSites[0]))];
    failpoint::Arm(site, failpoint::Mode::kErrorEveryN,
                   1 + static_cast<int64_t>(rng() % 20));
  }
  Database db;
  StoreOptions options;  // sync = true: an OK append is acknowledged-durable
  auto store = PersistentStore::Open(dir, &db, options);
  if (!store.ok()) _exit(0);  // injected fault at an open-path boundary
  auto acks = AppendableFile::Open(acks_path);
  if (!acks.ok()) _exit(0);
  for (int appended = 1; appended <= 100000; ++appended) {
    uint64_t id = store->next_seq();
    if (scenario.retract_every > 0 &&
        id % static_cast<uint64_t>(scenario.retract_every) == 0) {
      if (!store->AppendRetractBatch(MakeRetract(id)).ok()) _exit(0);
    } else if (!store->AppendBatch(MakeBatch(id)).ok()) {
      _exit(0);
    }
    // The batch is durable; acknowledge it. A crash between these two
    // writes only under-reports acks, which weakens but never falsifies
    // the "every acked batch present" check.
    std::string line = std::to_string(id) + "\n";
    if (!acks->Append(line).ok()) _exit(0);
    if (!acks->Sync().ok()) _exit(0);
    if (scenario.snapshot_every > 0 &&
        appended % scenario.snapshot_every == 0) {
      if (!store->WriteSnapshot().ok()) _exit(0);
    }
    if (scenario.compact_every > 0 &&
        appended % scenario.compact_every == 0) {
      if (!store->Compact().ok()) _exit(0);
    }
  }
  _exit(0);
}

// Largest id on a complete ("\n"-terminated) line of the ack file.
uint64_t MaxAckedId(const std::string& acks_path) {
  auto data = ReadFileToString(acks_path);
  if (!data.ok()) return 0;
  uint64_t max_id = 0;
  size_t start = 0;
  while (true) {
    size_t end = data->find('\n', start);
    if (end == std::string::npos) break;  // trailing partial line: ignore
    uint64_t id = 0;
    if (ParseU64(std::string_view(*data).substr(start, end - start), &id) &&
        id > max_id) {
      max_id = id;
    }
    start = end + 1;
  }
  return max_id;
}

// Recovers `dir` in-process and checks every durability invariant.
// Returns the number of visible batches so the driver can assert forward
// progress across the whole loop.
uint64_t VerifyRecovered(const std::string& dir,
                         const std::string& acks_path) {
  Database db;
  auto store = PersistentStore::Open(dir, &db, StoreOptions());
  EXPECT_TRUE(store.ok()) << "recovery failed: " << store.status();
  if (!store.ok()) return 0;
  uint64_t visible = 0;
  std::vector<std::string> names = db.RelationNames();
  if (!names.empty()) {
    EXPECT_EQ(names, std::vector<std::string>{"r"});
    auto relation = db.Relation("r");
    EXPECT_TRUE(relation.ok());
    if (relation.ok()) {
      visible = (*relation)->size();
      for (size_t i = 0; i < visible; ++i) {
        const GeneralizedTuple& tuple = (*relation)->tuple(i);
        EXPECT_EQ(tuple.data().size(), 1u);
        if (tuple.data().size() != 1u) break;
        const std::string& name = db.interner().NameOf(tuple.data()[0]);
        uint64_t id = 0;
        bool parsed = name.size() > 1 && name[0] == 'c' &&
                      ParseU64(std::string_view(name).substr(1), &id);
        EXPECT_TRUE(parsed) << "garbage data constant '" << name << "'";
        if (!parsed) break;
        // Exactly batches 1..M, in append order, each containing its
        // ground fact.
        EXPECT_EQ(id, i + 1);
        if (id != i + 1) break;
        EXPECT_TRUE(tuple.ContainsGround({static_cast<int64_t>(id)},
                                         {tuple.data()[0]}));
      }
      Status consistent = (*relation)->CheckConsistency();
      EXPECT_TRUE(consistent.ok()) << consistent;
    }
  }
  // The recovered cursor agrees with the visible state: no phantom
  // sequence numbers, no lost durable records.
  EXPECT_EQ(store->next_seq(), visible + 1);
  EXPECT_LE(MaxAckedId(acks_path), visible)
      << "an acknowledged batch is missing after recovery";
  Status closed = store->Close();
  EXPECT_TRUE(closed.ok()) << closed;
  return visible;
}

// Verification for scenarios that interleave retract records: the durable
// prefix 1..M is fully determined by M (the schedule is a pure function of
// the sequence number), so an offline in-memory replay of the same records
// must land on a bit-identical stored image — same entries, same order,
// same tombstone pattern, same interner. EncodeDatabaseImage canonicalizes
// tombstoned payloads, so when the writer compacted or snapshotted before
// dying the comparison still holds.
uint64_t VerifyRecoveredWithRetracts(const std::string& dir,
                                     const std::string& acks_path,
                                     const Scenario& scenario) {
  Database db;
  auto store = PersistentStore::Open(dir, &db, StoreOptions());
  EXPECT_TRUE(store.ok()) << "recovery failed: " << store.status();
  if (!store.ok()) return 0;
  const uint64_t durable = store->next_seq() - 1;
  Database oracle;
  for (uint64_t s = 1; s <= durable; ++s) {
    Status applied =
        (s % static_cast<uint64_t>(scenario.retract_every) == 0)
            ? ApplyRetractBatch(MakeRetract(s), &oracle)
            : ApplyFactBatch(MakeBatch(s), &oracle);
    EXPECT_TRUE(applied.ok()) << "offline replay of seq " << s << ": "
                              << applied;
    if (!applied.ok()) return 0;
  }
  EXPECT_TRUE(EncodeDatabaseImage(db) == EncodeDatabaseImage(oracle))
      << "recovered image diverges from the offline replay of records 1.."
      << durable;
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    EXPECT_TRUE(relation.ok());
    if (!relation.ok()) continue;
    Status consistent = (*relation)->CheckConsistency();
    EXPECT_TRUE(consistent.ok()) << consistent;
  }
  EXPECT_LE(MaxAckedId(acks_path), durable)
      << "an acknowledged record is missing after recovery";
  Status closed = store->Close();
  EXPECT_TRUE(closed.ok()) << closed;
  return durable;
}

void RunKillLoop(const Scenario& scenario) {
  const int iterations = IterationsPerScenario();
  std::string dir = TestDir(scenario.tag);
  std::string acks_path =
      ::testing::TempDir() + "lrpdb_crash_" + scenario.tag + "_acks";
  Status removed = RemoveFile(acks_path);
  (void)removed;
  std::mt19937 rng(0xC0FFEEu ^ static_cast<unsigned>(scenario.snapshot_every)
                   ^ static_cast<unsigned>(scenario.compact_every * 977));
  uint64_t last_visible = 0;
  for (int iter = 0; iter < iterations; ++iter) {
    SCOPED_TRACE(std::string(scenario.tag) + " iteration " +
                 std::to_string(iter));
    bool arm_failpoint = rng() % 3 == 0;
    unsigned child_seed = rng();
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      WriterChild(dir, acks_path, scenario, child_seed, arm_failpoint);
    }
    // Let the writer run 0..25ms, then kill it wherever it happens to be.
    ::usleep(rng() % 25000);
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    uint64_t visible =
        scenario.retract_every > 0
            ? VerifyRecoveredWithRetracts(dir, acks_path, scenario)
            : VerifyRecovered(dir, acks_path);
    // Durable state never regresses across crashes.
    EXPECT_GE(visible, last_visible);
    last_visible = visible;
    if (::testing::Test::HasFailure()) break;
  }
  // The loop made real progress: acknowledged batches both survived and
  // accumulated (guards against a vacuous pass where no child ever got to
  // append).
  EXPECT_GT(last_visible, 0u);
  RemoveTree(dir);
  Status cleanup = RemoveFile(acks_path);
  (void)cleanup;
}

TEST(CrashRecoveryTest, AppendOnlyKillLoop) {
  RunKillLoop(Scenario{"append", /*snapshot_every=*/0, /*compact_every=*/0});
}

TEST(CrashRecoveryTest, SnapshotKillLoop) {
  RunKillLoop(Scenario{"snapshot", /*snapshot_every=*/5, /*compact_every=*/0});
}

TEST(CrashRecoveryTest, SnapshotAndCompactionKillLoop) {
  RunKillLoop(Scenario{"compact", /*snapshot_every=*/4, /*compact_every=*/3});
}

// Adds interleaved with retract records (every 3rd sequence number
// tombstones the previous fact), plus snapshots and compaction: after
// every kill, recovery must replay to the exact stored image an offline
// replay of the durable prefix produces — the incremental-maintenance
// durability contract (DESIGN.md §13).
TEST(CrashRecoveryTest, RetractInterleavedKillLoop) {
  RunKillLoop(Scenario{"retract", /*snapshot_every=*/4, /*compact_every=*/5,
                       /*retract_every=*/3});
}

}  // namespace
}  // namespace storage
}  // namespace lrpdb
