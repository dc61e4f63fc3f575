// Tests for the signature-indexed tuple store (src/gdb/tuple_store.h):
// hand-computed insert outcomes, whole program evaluations checked against
// the ground oracle (tests/ground_oracle.h), plus unit tests of the
// store's probe counters, delta-generation protocol, and index invariants.
// The counter assertions are the acceptance check that InsertIfNew and join
// matching never scan tuples outside the probed signature / posting bucket.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/gdb/tuple_store.h"
#include "src/parser/parser.h"
#include "tests/ground_oracle.h"

namespace lrpdb {

// Corrupts private index state so the tests below can assert that
// CheckConsistency reports the same first inconsistency on every run
// regardless of hash layout (it walks buckets by SignatureId and postings
// by DataValue, never in hash order).
class TupleStoreTestPeer {
 public:
  static void AppendToBucketWithId(TupleStore& store, SignatureId id,
                                   EntryId bogus) {
    for (auto& [fe, bucket] : store.signature_index_) {
      if (bucket.id == id) {
        bucket.entries.push_back(bogus);
        return;
      }
    }
    FAIL() << "no bucket with signature id " << id;
  }

  static void SetEntrySignature(TupleStore& store, EntryId id,
                                SignatureId signature) {
    store.entries_[id].signature = signature;
  }

  static void ReversePosting(TupleStore& store, int column, DataValue value) {
    auto it = store.data_index_[column].find(value);
    ASSERT_NE(it, store.data_index_[column].end());
    std::reverse(it->second.begin(), it->second.end());
  }

  static void AppendToPosting(TupleStore& store, int column, DataValue value,
                              EntryId bogus) {
    auto it = store.data_index_[column].find(value);
    ASSERT_NE(it, store.data_index_[column].end());
    it->second.push_back(bogus);
  }
};

namespace {

// A banded tuple (period n + offset) restricted to [lo, hi] with one data
// column, for exercising signature buckets and postings independently.
GeneralizedTuple Banded(int64_t period, int64_t offset, int64_t lo, int64_t hi,
                        DataValue data) {
  Dbm constraint(1);
  constraint.AddLowerBound(1, lo);
  constraint.AddUpperBound(1, hi);
  return GeneralizedTuple({Lrp(period, offset)}, {data}, constraint);
}

TEST(TupleStoreTest, InsertProbesOnlySameSignatureBucket) {
  TupleStore store({1, 1});
  // Five distinct signatures (different offsets), then three entries of one
  // signature in disjoint bands.
  for (int64_t offset = 0; offset < 5; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(7, offset, 0, 10, 1))->inserted);
  }
  for (int64_t band = 0; band < 3; ++band) {
    ASSERT_TRUE(
        store.Insert(Banded(7, 6, 100 * band, 100 * band + 10, 1))->inserted);
  }
  ASSERT_EQ(store.size(), 8u);
  ASSERT_EQ(store.num_signatures(), 6u);

  // A candidate with the 3-entry signature must be compared against exactly
  // those 3 entries -- never the other 5.
  StoreStats round;
  auto outcome = store.Insert(Banded(7, 6, 5, 8, 1), NormalizeLimits(), &round);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->new_signature);
  EXPECT_EQ(round.signature_probes, 1);
  EXPECT_EQ(round.subsumption_checks, 1);
  EXPECT_EQ(round.subsumption_candidates, 3);

  // A candidate with a fresh signature skips subsumption entirely.
  round = StoreStats();
  outcome = store.Insert(Banded(7, 5, 0, 10, 1), NormalizeLimits(), &round);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->inserted);
  EXPECT_TRUE(outcome->new_signature);
  EXPECT_EQ(round.subsumption_checks, 0);
  EXPECT_EQ(round.subsumption_candidates, 0);
}

TEST(TupleStoreTest, InsertOutcomesMatchBruteForceReference) {
  // Every outcome of one insertion sequence, worked out by hand: entries
  // 0-3 take four signatures of period 6, entry 4 widens offset 1's
  // bucket, entry 5 is period 3's first.
  struct Step {
    GeneralizedTuple tuple;
    bool inserted;
    bool new_signature;
    std::vector<EntryId> absorbers;
  };
  const std::vector<Step> steps = {
      {Banded(6, 0, 0, 50, 0), true, true, {}},
      {Banded(6, 1, 0, 50, 1), true, true, {}},
      {Banded(6, 2, 0, 50, 0), true, true, {}},
      {Banded(6, 3, 0, 50, 1), true, true, {}},
      {Banded(6, 1, 10, 20, 1), false, false, {1}},     // Subsumed by 1.
      {Banded(6, 1, 40, 120, 1), true, false, {}},      // Overlaps 1 only.
      {Banded(3, 1, 0, 50, 0), true, true, {}},         // New signature.
      {Banded(6, 1, 70, 90, 1), false, false, {1, 4}},  // Now subsumed.
  };
  TupleStore store({1, 1});
  EntryId next_id = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    auto outcome = store.Insert(steps[i].tuple);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_EQ(outcome->inserted, steps[i].inserted);
    EXPECT_EQ(outcome->new_signature, steps[i].new_signature);
    EXPECT_EQ(outcome->absorbers, steps[i].absorbers);
    if (steps[i].inserted) {
      EXPECT_EQ(outcome->id, next_id);
      EXPECT_EQ(store.tuple(next_id).ToString(), steps[i].tuple.ToString());
      ++next_id;
    }
    EXPECT_TRUE(store.CheckConsistency().ok());
  }
  EXPECT_EQ(store.size(), 6u);
  EXPECT_EQ(store.num_signatures(), 5u);
  EXPECT_EQ(store.EntriesWithSignature(steps[1].tuple.free_extension()),
            (std::vector<EntryId>{1, 4}));
}

// With corruptions in two different signature buckets, the reported error
// must always be the lower-id bucket's, independent of the hash layout the
// store happens to have (regression test for the hash-order walk this
// replaced). Varying the signature count varies bucket load factors and
// therefore the unordered_map's internal ordering.
TEST(TupleStoreTest, CheckConsistencyReportsLowestSignatureBucketFirst) {
  for (int64_t signatures : {4, 9, 17, 40}) {
    TupleStore store({1, 1});
    // Band [0, 100] is wide enough that every offset < signatures + 1 keeps
    // at least one point (an empty band would make Insert report a no-op).
    for (int64_t offset = 0; offset < signatures; ++offset) {
      ASSERT_TRUE(
          store.Insert(Banded(signatures + 1, offset, 0, 100, 1))->inserted);
    }
    ASSERT_TRUE(store.CheckConsistency().ok());
    // Lower bucket id: an out-of-range entry. Higher bucket id: an entry
    // whose signature field disagrees. Distinct messages, so the walk order
    // is observable.
    TupleStoreTestPeer::AppendToBucketWithId(
        store, 1, static_cast<EntryId>(store.size() + 100));
    TupleStoreTestPeer::SetEntrySignature(
        store, static_cast<EntryId>(signatures - 1), 9999);
    Status status = store.CheckConsistency();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("bucket id out of range"),
              std::string::npos)
        << "signatures=" << signatures << ": " << status.ToString();
  }
}

// Same discipline for the per-column postings: with corruptions under two
// different data values, the reported error is always the lower value's.
TEST(TupleStoreTest, CheckConsistencyReportsLowestPostingValueFirst) {
  for (int64_t values : {4, 9, 17, 40}) {
    TupleStore store({1, 1});
    for (int64_t v = 0; v < values; ++v) {
      // Two entries per value (distinct signatures) so postings have
      // length two and sortedness is observable. Band [0, 100] keeps every
      // canonicalized offset non-empty.
      ASSERT_TRUE(store.Insert(Banded(values + 1, 2 * v, 0, 100,
                                      static_cast<DataValue>(v)))
                      ->inserted);
      ASSERT_TRUE(store.Insert(Banded(values + 1, 2 * v + 1, 0, 100,
                                      static_cast<DataValue>(v)))
                      ->inserted);
    }
    ASSERT_TRUE(store.CheckConsistency().ok());
    TupleStoreTestPeer::ReversePosting(store, 0, static_cast<DataValue>(1));
    TupleStoreTestPeer::AppendToPosting(
        store, 0, static_cast<DataValue>(values - 1),
        static_cast<EntryId>(store.size() + 100));
    Status status = store.CheckConsistency();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("posting list not sorted"),
              std::string::npos)
        << "values=" << values << ": " << status.ToString();
  }
}

TEST(TupleStoreTest, DeltaGenerationProtocol) {
  TupleStore store({1, 0});
  auto insert = [&](int64_t offset) {
    ASSERT_TRUE(
        store
            .Insert(GeneralizedTuple({Lrp(9, offset)}, {}, Dbm(1)))
            ->inserted);
  };
  insert(0);
  insert(1);
  store.AdvanceGeneration();  // Delta = {0, 1}.
  insert(2);
  EXPECT_EQ(store.delta_lo(), 0u);
  EXPECT_EQ(store.delta_hi(), 2u);
  EXPECT_EQ(store.delta_size(), 2u);

  store.AdvanceGeneration();  // Delta = {2}.
  EXPECT_EQ(store.delta_lo(), 2u);
  EXPECT_EQ(store.delta_hi(), 3u);

  store.AdvanceGeneration();  // Nothing appended: delta empty.
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(TupleStoreTest, DataRequirementProbeScansOnlyPostingBucket) {
  TupleStore store({1, 1});
  // 12 tuples; data value 5 on every third one.
  for (int64_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        store.Insert(Banded(13, i, 0, 25, i % 3 == 0 ? 5 : 100 + i))
            ->inserted);
  }
  // A probe the way the join kernel runs one: the posting of the bound
  // value over the whole range, reported through CountProbe. (The kernel
  // clips postings to sub-ranges; batch_kernel_test.cc pins that.)
  const int64_t range = static_cast<int64_t>(store.size());
  const std::vector<EntryId>* posting = store.PostingFor(0, 5);
  ASSERT_NE(posting, nullptr);
  EXPECT_EQ(*posting, (std::vector<EntryId>{0, 3, 6, 9}));
  StoreStats probe;
  const int64_t scanned = static_cast<int64_t>(posting->size());
  probe.CountProbe(scanned, range - scanned);
  EXPECT_EQ(probe.index_probes, 1);
  EXPECT_EQ(probe.tuples_scanned, 4);
  EXPECT_EQ(probe.tuples_pruned, 8);
  // scanned + pruned always accounts for the full generation range.
  EXPECT_EQ(probe.tuples_scanned + probe.tuples_pruned, range);

  // A value with no posting yields zero candidates, all pruned.
  EXPECT_EQ(store.PostingFor(0, 999), nullptr);
  probe = StoreStats();
  probe.CountProbe(0, range);
  EXPECT_EQ(probe.tuples_scanned, 0);
  EXPECT_EQ(probe.tuples_pruned, 12);
}

TEST(TupleStoreTest, EraseEntriesRenumbersInPlace) {
  TupleStore store({1, 1});
  // Entries 0..5: offsets 0..5 of period 11, data 7 on the even ones. Two
  // more entries share entry 1's signature in disjoint bands.
  for (int64_t offset = 0; offset < 6; ++offset) {
    ASSERT_TRUE(
        store.Insert(Banded(11, offset, 0, 20, offset % 2 == 0 ? 7 : 8))
            ->inserted);
  }
  ASSERT_TRUE(store.Insert(Banded(11, 1, 100, 120, 8))->inserted);  // 6
  ASSERT_TRUE(store.Insert(Banded(11, 1, 200, 220, 8))->inserted);  // 7
  store.AdvanceGeneration();
  store.Tombstone(3);
  const int64_t bytes_before = store.approx_bytes();
  std::vector<std::string> expected;
  for (EntryId id : {0, 3, 4, 5, 7}) {
    expected.push_back(store.tuple(id).ToString());
  }
  store.EraseEntries({1, 2, 6});
  ASSERT_EQ(store.size(), 5u);
  for (EntryId id = 0; id < store.size(); ++id) {
    EXPECT_EQ(store.tuple(id).ToString(), expected[id]) << id;
  }
  EXPECT_TRUE(store.CheckConsistency().ok()) << store.CheckConsistency();
  // The tombstone moved with its entry; the generation ranges shrank.
  EXPECT_FALSE(store.is_live(1));
  EXPECT_EQ(store.live_size(), 4u);
  EXPECT_EQ(store.delta_lo(), 0u);
  EXPECT_EQ(store.delta_hi(), 5u);
  EXPECT_LT(store.approx_bytes(), bytes_before);
  // Postings and buckets carry the new ids; a bucket's remaining entry is
  // still found by its signature.
  const std::vector<EntryId>* sevens = store.PostingFor(0, 7);
  ASSERT_NE(sevens, nullptr);
  EXPECT_EQ(*sevens, (std::vector<EntryId>{0, 2}));
  EXPECT_EQ(store.EntriesWithSignature(store.tuple(4).free_extension()),
            (std::vector<EntryId>{4}));
  // Appends continue densely after the survivors.
  auto outcome = store.Insert(Banded(11, 9, 0, 20, 9));
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->id, 5u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST(TupleStoreTest, GroundFactStoreDedupOrderAndDelta) {
  GroundFactStore store;
  EXPECT_TRUE(store.Insert({{3}, {}}));
  EXPECT_TRUE(store.Insert({{1}, {}}));
  EXPECT_FALSE(store.Insert({{3}, {}}));  // Duplicate.
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.fact(0).times, (std::vector<int64_t>{3}));
  EXPECT_EQ(store.fact(1).times, (std::vector<int64_t>{1}));
  EXPECT_EQ(store.count({{3}, {}}), 1u);
  EXPECT_EQ(store.count({{7}, {}}), 0u);

  store.AdvanceGeneration();
  EXPECT_EQ(store.delta_lo(), 0u);
  EXPECT_EQ(store.delta_hi(), 2u);
  EXPECT_TRUE(store.Insert({{7}, {}}));
  store.AdvanceGeneration();
  EXPECT_EQ(store.delta_lo(), 2u);
  EXPECT_EQ(store.delta_hi(), 3u);

  // Range-for iterates in insertion order (set-style reading).
  std::vector<int64_t> seen;
  for (const GroundTuple& fact : store) seen.push_back(fact.times[0]);
  EXPECT_EQ(seen, (std::vector<int64_t>{3, 1, 7}));

  // Move preserves contents (pointers into the node-based set are stable).
  GroundFactStore moved = std::move(store);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_TRUE(moved.Contains({{7}, {}}));
}

// ---- Whole-evaluation tests against the ground oracle ----

const char* const kDifferentialPrograms[] = {
    // Orbit program (E2 shape): recursion over shifted offsets.
    R"(
      .decl e(time, time)
      .decl p(time, time)
      .fact e(24n+8, 24n+10) with T2 = T1 + 2.
      p(t1 + 2, t2 + 2) :- e(t1, t2).
      p(t1 + 5, t2 + 5) :- p(t1, t2).
    )",
    // Data join: the posting-list probe path with constants and bound vars.
    R"(
      .decl route(time, data, data)
      .decl hop2(time, data, data)
      .fact route(12n+1, "a", "b").
      .fact route(12n+3, "b", "c").
      .fact route(12n+4, "b", "d").
      .fact route(12n+9, "c", "a").
      hop2(t, X, Z) :- route(t, X, Y), route(t + 2, Y, Z).
      hop2(t + 12, X, Z) :- hop2(t, X, Z).
    )",
    // Stratified negation on top of recursion.
    R"(
      .decl tick(time)
      .decl busy(time)
      .decl quiet(time)
      .fact tick(6n).
      busy(t + 2) :- tick(t).
      busy(t + 6) :- busy(t).
      quiet(t) :- tick(t), !busy(t + 1).
    )",
};

class TupleStoreDifferentialTest : public ::testing::TestWithParam<int> {};

// Each program's derivations reach at most 120 time units below a fact
// (the orbit program's +5 chain needs fewer than 24 hops) and 2 above it
// (hop2 reads route at t + 2), so a ground window of [-200, 400) decides
// [-10, 300) exactly.
TEST_P(TupleStoreDifferentialTest, IndexedMatchesBruteForceGroundSets) {
  const char* source = kDifferentialPrograms[GetParam()];
  Database db;
  auto unit = Parse(source, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->reached_fixpoint);
  ExpectMatchesGroundOracle(unit->program, db, *result, -10, 300, -200, 400);
  for (const auto& [name, relation] : result->idb) {
    EXPECT_TRUE(relation.store().CheckConsistency().ok()) << name;
  }
  // The counters certify bucket-bounded work: every insert probed a
  // signature, and subsumption compared no more tuples than the store
  // holds (bucket-bounded, not relation-bounded).
  StoreStats totals = result->StoreTotals();
  EXPECT_GT(totals.signature_probes, 0);
  // Every probed candidate ends exactly one way: stored or subsumed.
  // (Empty-ground-set candidates are dropped before any probe.)
  EXPECT_EQ(totals.signature_probes, totals.inserts + totals.subsumed);
}

INSTANTIATE_TEST_SUITE_P(Programs, TupleStoreDifferentialTest,
                         ::testing::Range(0, 3));

TEST(TupleStoreEvaluatorTest, JoinProbesPruneByBoundDataColumns) {
  // The hop2 join binds Y by the first atom, so the second atom's probe must
  // prune by posting list: pruned > 0 in the round counters, and
  // scanned + pruned must account exactly for a full scan.
  Database db;
  auto unit = Parse(kDifferentialPrograms[1], &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  StoreStats totals = result->StoreTotals();
  EXPECT_GT(totals.index_probes, 0);
  EXPECT_GT(totals.tuples_pruned, 0);
  for (const RoundStats& round : result->rounds) {
    EXPECT_GE(round.store.tuples_scanned, 0);
    EXPECT_GE(round.store.tuples_pruned, 0);
  }
}

// Contention coverage for the store's documented const surface: with the
// store fully built, PostingFor plus CountProbe (into a thread-private
// StoreStats) as the join kernel issues them, and pieces() (whose lazy
// normalized-piece cache goes through pieces_mu_) must all be callable from
// many threads at once.
// Runs under TSan via ci/check.sh --tsan. Failures are accumulated into
// atomics and asserted after the join, keeping gtest single-threaded.
TEST(TupleStoreTest, ConcurrentConstReadsShareCachesSafely) {
  TupleStore store({1, 1});
  for (int64_t offset = 0; offset < 8; ++offset) {
    for (int64_t band = 0; band < 8; ++band) {
      ASSERT_TRUE(store
                      .Insert(Banded(9, offset, 50 * band, 50 * band + 10,
                                     static_cast<DataValue>(band % 3)))
                      ->inserted);
    }
  }
  const size_t num_entries = store.size();
  ASSERT_EQ(num_entries, 64u);

  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  std::atomic<int> started{0};
  std::atomic<int> failures{0};
  std::atomic<int64_t> matched{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      while (started.load() < kThreads) {
      }
      for (int i = 0; i < kIterations; ++i) {
        const std::vector<EntryId>* posting =
            store.PostingFor(0, static_cast<DataValue>(t % 3));
        if (posting == nullptr) {
          failures.fetch_add(1);
          continue;
        }
        const int64_t local = static_cast<int64_t>(posting->size());
        StoreStats probe_stats;
        probe_stats.CountProbe(local,
                               static_cast<int64_t>(num_entries) - local);
        if (probe_stats.tuples_scanned + probe_stats.tuples_pruned !=
            static_cast<int64_t>(num_entries)) {
          failures.fetch_add(1);
        }
        matched.fetch_add(local);
        auto pieces =
            store.pieces(static_cast<EntryId>((t * 37 + i) % num_entries));
        if (!pieces.ok() || (*pieces)->empty()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Every thread's probe matched the posting bucket of its data value:
  // values 0, 1, 2 appear in 24, 24, and 16 entries respectively, and
  // threads are spread as t % 3 = {0, 0, 0, 1, 1, 1, 2, 2}.
  EXPECT_EQ(matched.load(), kIterations * (3 * 24 + 3 * 24 + 2 * 16));
}

TEST(TupleStoreTest, ApproxBytesGrowsWithEveryInsertAndSurvivesMoves) {
  TupleStore store({1, 1});
  EXPECT_EQ(store.approx_bytes(), 0);
  int64_t previous = 0;
  for (int64_t offset = 0; offset < 6; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(11, offset, 0, 20, offset))->inserted);
    EXPECT_GT(store.approx_bytes(), previous);
    previous = store.approx_bytes();
  }
  // Subsumed candidates retain nothing and charge nothing.
  ASSERT_FALSE(store.Insert(Banded(11, 0, 5, 10, 0))->inserted);
  EXPECT_EQ(store.approx_bytes(), previous);
  // The counter rides along with the store through moves.
  TupleStore moved(std::move(store));
  EXPECT_EQ(moved.approx_bytes(), previous);
  TupleStore assigned({1, 1});
  assigned = std::move(moved);
  EXPECT_EQ(assigned.approx_bytes(), previous);
}

// One writer inserts while seven readers hammer the one accessor documented
// safe concurrently *with* mutation: approx_bytes(). Each reader checks its
// sampled byte count is monotone non-decreasing -- a torn or non-atomic
// counter would trip both this and TSan (ci/check.sh --tsan).
TEST(TupleStoreTest, ApproxBytesIsReadableWhileAnotherThreadInserts) {
  TupleStore store({1, 1});
  constexpr int kReaders = 7;
  constexpr int kInserts = 400;
  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      started.fetch_add(1);
      while (started.load() < kReaders + 1) {
      }
      int64_t last_bytes = 0;
      while (!done.load(std::memory_order_acquire)) {
        int64_t bytes = store.approx_bytes();
        if (bytes < last_bytes) failures.fetch_add(1);
        if (bytes < 0) failures.fetch_add(1);
        last_bytes = bytes;
      }
    });
  }
  started.fetch_add(1);
  while (started.load() < kReaders + 1) {
  }
  for (int64_t i = 0; i < kInserts; ++i) {
    // Distinct offsets (distinct signatures), each with a nonempty ground
    // set around its own offset: every insert lands, none is subsumed.
    auto outcome = store.Insert(Banded(100003, i, i, i + 5, i % 5));
    if (!outcome.ok() || !outcome->inserted) failures.fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store.size(), static_cast<size_t>(kInserts));
  EXPECT_GT(store.approx_bytes(), 0);
}

// --- Tombstones (incremental retraction, DESIGN.md §13) -------------------

// Tombstoning removes an entry from every probe path without renumbering:
// the slot and id stay, live accounting and consistency hold, and the dead
// entry no longer absorbs a duplicate insert.
TEST(TupleStoreTest, TombstoneRemovesEntryFromProbePathsButKeepsIds) {
  TupleStore store({1, 1});
  for (int64_t offset = 0; offset < 4; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(9, offset, 0, 30, offset % 2))->inserted);
  }
  ASSERT_EQ(store.size(), 4u);
  EXPECT_FALSE(store.has_tombstones());

  store.Tombstone(1);
  EXPECT_TRUE(store.has_tombstones());
  EXPECT_EQ(store.size(), 4u);        // ids are stable...
  EXPECT_EQ(store.live_size(), 3u);   // ...but entry 1 no longer counts
  EXPECT_FALSE(store.is_live(1));
  EXPECT_TRUE(store.is_live(0));
  EXPECT_TRUE(store.CheckConsistency().ok());
  store.Tombstone(1);  // idempotent
  EXPECT_EQ(store.live_size(), 3u);

  // The dead entry is out of the subsumption path: re-inserting the exact
  // tuple lands as a fresh entry at the next id instead of being absorbed.
  auto outcome = store.Insert(Banded(9, 1, 0, 30, 1));
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->inserted);
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.live_size(), 4u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

// TombstoneExact, the one retraction routine of the live path and WAL
// replay: it takes exactly the live entries equal to the fact in lrps,
// data and DBM, ascending. Differing in any one of the three is a miss.
TEST(TupleStoreTest, TombstoneExactMatchesLrpsDataAndDbm) {
  TupleStore store({1, 1});
  // InsertUnlessEmpty skips subsumption, so exact duplicates get entries.
  const GeneralizedTuple fact = Banded(6, 1, 0, 30, 0);
  ASSERT_TRUE(store.InsertUnlessEmpty(fact));                   // 0
  ASSERT_TRUE(store.InsertUnlessEmpty(Banded(6, 2, 0, 30, 0)));  // 1: lrps
  ASSERT_TRUE(store.InsertUnlessEmpty(Banded(6, 1, 0, 30, 1)));  // 2: data
  ASSERT_TRUE(store.InsertUnlessEmpty(Banded(6, 1, 0, 29, 0)));  // 3: DBM
  ASSERT_TRUE(store.InsertUnlessEmpty(fact));                   // 4
  ASSERT_TRUE(store.InsertUnlessEmpty(fact));                   // 5
  store.Tombstone(5);  // Already dead: not matched again.

  EXPECT_EQ(store.TombstoneExact(fact), (std::vector<EntryId>{0, 4}));
  EXPECT_FALSE(store.is_live(0));
  EXPECT_TRUE(store.is_live(1));
  EXPECT_TRUE(store.is_live(2));
  EXPECT_TRUE(store.is_live(3));
  EXPECT_FALSE(store.is_live(4));
  EXPECT_EQ(store.live_size(), 3u);
  EXPECT_TRUE(store.CheckConsistency().ok());

  // Nothing live is left to match; an absent fact matches nothing either.
  EXPECT_TRUE(store.TombstoneExact(fact).empty());
  EXPECT_TRUE(store.TombstoneExact(Banded(6, 3, 0, 30, 0)).empty());
  EXPECT_EQ(store.live_size(), 3u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

// live_ids() is the one whole-store scan: ascending, skipping every
// tombstoned slot, including the first and the last. Erasing the dead
// entries returns the monotone remap and leaves the same live tuples in the
// same order with no dead slot left.
TEST(TupleStoreTest, LiveIdsSkipTombstonesAndEraseReclaimsThem) {
  TupleStore store({1, 1});
  for (int64_t offset = 0; offset < 5; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(8, offset, 0, 40, offset))->inserted);
  }
  store.Tombstone(0);
  store.Tombstone(2);
  store.Tombstone(4);
  std::vector<EntryId> live;
  std::vector<std::string> tuples;
  for (EntryId id : store.live_ids()) {
    live.push_back(id);
    tuples.push_back(store.tuple(id).ToString());
  }
  EXPECT_EQ(live, (std::vector<EntryId>{1, 3}));

  const std::vector<EntryId> remap = store.EraseEntries({0, 2, 4});
  EXPECT_EQ(remap, (std::vector<EntryId>{kErasedEntry, 0, kErasedEntry, 1,
                                         kErasedEntry}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.live_size(), 2u);
  EXPECT_FALSE(store.has_tombstones());
  std::vector<std::string> after;
  for (EntryId id : store.live_ids()) {
    after.push_back(store.tuple(id).ToString());
  }
  EXPECT_EQ(after, tuples);
  EXPECT_TRUE(store.CheckConsistency().ok());
  // Ids keep advancing densely after the erase.
  ASSERT_TRUE(store.Insert(Banded(8, 6, 0, 40, 6))->inserted);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

// Tombstones interact cleanly with the delta-generation protocol: a dead
// entry inside the current delta window stays addressable (the window is a
// range of ids, not of live entries) and live accounting is unaffected by
// generation advances.
TEST(TupleStoreTest, TombstoneInsideDeltaWindowKeepsRangeAddressing) {
  TupleStore store({1, 1});
  ASSERT_TRUE(store.Insert(Banded(5, 0, 0, 20, 0))->inserted);
  ASSERT_TRUE(store.Insert(Banded(5, 1, 0, 20, 1))->inserted);
  ASSERT_TRUE(store.Insert(Banded(5, 2, 0, 20, 2))->inserted);
  store.AdvanceGeneration();  // Delta = {0, 1, 2}.
  ASSERT_EQ(store.delta_lo(), 0u);
  ASSERT_EQ(store.delta_hi(), 3u);

  store.Tombstone(1);
  EXPECT_EQ(store.delta_lo(), 0u);  // the window is untouched...
  EXPECT_EQ(store.delta_hi(), 3u);
  EXPECT_EQ(store.live_size(), 2u);
  store.AdvanceGeneration();
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_EQ(store.live_size(), 2u);  // ...and advancing changes no liveness
  EXPECT_TRUE(store.CheckConsistency().ok());
}

}  // namespace
}  // namespace lrpdb
