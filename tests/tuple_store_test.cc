// Tests for the signature-indexed tuple store (src/gdb/tuple_store.h):
// hand-computed insert outcomes, whole program evaluations checked against
// the ground oracle (tests/ground_oracle.h), plus unit tests of the
// store's probe counters, delta-generation protocol, and index invariants.
// The counter assertions are the acceptance check that Insert and join
// matching never scan tuples outside the probed signature / posting bucket.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/gdb/normalized_tuple.h"
#include "src/gdb/tuple_store.h"
#include "src/parser/parser.h"
#include "tests/counting_new.h"
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
    ASSERT_LT(id, store.num_signatures()) << "no bucket with signature id";
    store.AddToBucket(id, bogus);
  }

  // The key is the representative row's: pointing signature `id` at the
  // row of signature `other` gives it a key its table slot does not hash.
  static void CorruptSignatureKey(TupleStore& store, SignatureId id,
                                  SignatureId other) {
    ASSERT_LT(id, store.num_signatures());
    ASSERT_LT(other, store.num_signatures());
    store.signatures_[id].representative =
        store.signatures_[other].representative;
  }

  // Signature `id`'s representative: an entry id, or kErasedKey | i for
  // the i-th erased key.
  static uint32_t Representative(const TupleStore& store, SignatureId id) {
    return store.signatures_[id].representative;
  }
  static bool HoldsErasedKey(const TupleStore& store, SignatureId id) {
    return (Representative(store, id) & TupleStore::kErasedKey) != 0;
  }
  static size_t ErasedKeys(const TupleStore& store) {
    return store.erased_ids_.size();
  }

  // The posting table slot of `value` in `column`.
  static TupleStore::Posting& PostingSlot(TupleStore& store, int column,
                                          DataValue value) {
    TupleStore::PostingTable& table = store.postings_[column];
    return table.slots[TupleStore::ProbePosting(table, value)];
  }

  // Reverses a posting of at least two ids, which live in the id pool.
  static void ReversePosting(TupleStore& store, int column, DataValue value) {
    const TupleStore::IdList& list = PostingSlot(store, column, value).entries;
    ASSERT_GE(list.size, 2u);
    EntryId* ids = store.id_pool_.data() + list.ref;
    std::reverse(ids, ids + list.size);
  }

  static void AppendToPosting(TupleStore& store, int column, DataValue value,
                              EntryId bogus) {
    store.PushId(&PostingSlot(store, column, value).entries, bogus);
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
  auto outcome = store.Insert(Banded(7, 6, 5, 8, 1), &round);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->new_signature);
  EXPECT_EQ(round.signature_probes, 1);
  EXPECT_EQ(round.subsumption_checks, 1);
  EXPECT_EQ(round.subsumption_candidates, 3);

  // A candidate with a fresh signature skips subsumption entirely.
  round = StoreStats();
  outcome = store.Insert(Banded(7, 5, 0, 10, 1), &round);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->inserted);
  EXPECT_TRUE(outcome->new_signature);
  EXPECT_EQ(round.subsumption_checks, 0);
  EXPECT_EQ(round.subsumption_candidates, 0);
}

// Subsumption is exact whichever way it is decided: by one entry whose DBM
// the candidate's implies, by the union of several entries, or by the lrp
// grid alone (the candidate's DBM admits points the entry's excludes, but
// none of them lies on 7n+3). Every case counts one check over the whole
// bucket, names the whole bucket as absorbers and leaves the store's bytes
// as they were: the store keeps no pieces.
TEST(TupleStoreTest, SubsumptionByOneEntryByUnionAndByLrpGrid) {
  struct Case {
    const char* name;
    std::vector<GeneralizedTuple> entries;
    GeneralizedTuple candidate;
  };
  const Case cases[] = {
      {"one entry",
       {Banded(7, 3, 0, 100, 1), Banded(7, 3, 200, 300, 1)},
       Banded(7, 3, 10, 50, 1)},
      {"union of entries",
       {Banded(7, 3, 0, 100, 1), Banded(7, 3, 50, 200, 1)},
       Banded(7, 3, 10, 150, 1)},
      {"lrp grid", {Banded(7, 3, 3, 94, 1)}, Banded(7, 3, 1, 99, 1)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TupleStore store({1, 1});
    for (const GeneralizedTuple& entry : c.entries) {
      ASSERT_TRUE(store.InsertUnlessEmpty(entry));
    }
    const int64_t bytes = store.approx_bytes();
    StoreStats stats;
    auto outcome = store.Insert(c.candidate, &stats);
    ASSERT_TRUE(outcome.ok()) << outcome.status();
    EXPECT_FALSE(outcome->inserted);
    std::vector<EntryId> bucket;
    for (EntryId id = 0; id < c.entries.size(); ++id) bucket.push_back(id);
    EXPECT_EQ(std::vector<EntryId>(outcome->absorbers.begin(),
                                   outcome->absorbers.end()),
              bucket);
    EXPECT_EQ(stats.subsumed, 1);
    EXPECT_EQ(stats.subsumption_checks, 1);
    EXPECT_EQ(stats.subsumption_candidates,
              static_cast<int64_t>(c.entries.size()));
    EXPECT_EQ(stats.empty_dropped, 0);
    EXPECT_EQ(store.approx_bytes(), bytes);
    EXPECT_EQ(store.size(), c.entries.size());
  }
  // A candidate reaching past every entry is still inserted.
  TupleStore store({1, 1});
  ASSERT_TRUE(store.InsertUnlessEmpty(Banded(7, 3, 3, 94, 1)));
  auto outcome = store.Insert(Banded(7, 3, 1, 101, 1));
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->inserted);
}

// A candidate whose DBM is satisfiable but whose ground set misses the lrp
// grid is an empty drop, decided before any bucket is probed.
TEST(TupleStoreTest, OffGridCandidateIsDroppedBeforeAnyProbe) {
  // T2 = T1 is satisfiable, but no point has T1 even and T2 odd.
  TupleStore pairs({2, 0});
  Dbm equal(2);
  equal.AddDifferenceEquality(2, 1, 0);
  const GeneralizedTuple off_grid({Lrp(2, 0), Lrp(2, 1)}, {}, equal);
  ASSERT_TRUE(off_grid.ConstraintSatisfiable());
  const int64_t bytes = pairs.approx_bytes();
  StoreStats stats;
  auto dropped = pairs.Insert(off_grid, &stats);
  ASSERT_TRUE(dropped.ok()) << dropped.status();
  EXPECT_FALSE(dropped->inserted);
  EXPECT_TRUE(dropped->absorbers.empty());
  EXPECT_EQ(stats.empty_dropped, 1);
  EXPECT_EQ(stats.signature_probes, 0);
  EXPECT_EQ(pairs.size(), 0u);
  EXPECT_EQ(pairs.approx_bytes(), bytes);
  ASSERT_TRUE(pairs.CheckConsistency().ok()) << pairs.CheckConsistency();
}

// The single residue piece of `tuple` as a row (NormalizedTuple::Normalize,
// then ToGeneralizedTuple): what the head projection emits, bounds closed.
GeneralizedTuple OnlyPiece(const GeneralizedTuple& tuple) {
  auto pieces = NormalizedTuple::Normalize(tuple);
  LRPDB_CHECK(pieces.ok() && pieces->size() == 1);
  return pieces->front().ToGeneralizedTuple();
}

// A trusted insert (TupleStore::Row::kClosedPiece) takes the row's bounds
// as closed and computes no residue piece unless it runs the union test,
// so into a bucket with an entry the piece's DBM implies, or into an empty
// bucket, it makes no operator-new allocation. (The row arenas grow by
// realloc, geometrically, and the signature table below has room.)
TEST(TupleStoreTest, TrustedPieceInsertAllocatesNothingWithoutTheUnionTest) {
  TupleStore store({1, 1});
  ASSERT_TRUE(store.Insert(Banded(7, 3, 0, 100, 1))->inserted);
  const GeneralizedTuple inside = OnlyPiece(Banded(7, 3, 10, 50, 1));
  const GeneralizedTuple fresh = OnlyPiece(Banded(7, 4, 10, 50, 1));
  StoreStats stats;

  int64_t before = lrpdb_testing::AllocationCount();
  auto implied =
      store.Insert(inside.view(), &stats, TupleStore::Row::kClosedPiece);
  const int64_t implied_allocations =
      lrpdb_testing::AllocationCount() - before;
  ASSERT_TRUE(implied.ok()) << implied.status();
  EXPECT_FALSE(implied->inserted);
  EXPECT_EQ(std::vector<EntryId>(implied->absorbers.begin(),
                                 implied->absorbers.end()),
            (std::vector<EntryId>{0}));
  EXPECT_EQ(implied_allocations, 0);

  before = lrpdb_testing::AllocationCount();
  auto appended =
      store.Insert(fresh.view(), &stats, TupleStore::Row::kClosedPiece);
  const int64_t appended_allocations =
      lrpdb_testing::AllocationCount() - before;
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_TRUE(appended->inserted);
  EXPECT_TRUE(appended->new_signature);
  EXPECT_EQ(appended_allocations, 0);

  EXPECT_EQ(stats.subsumed, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.empty_dropped, 0);
  EXPECT_EQ(store.tuple(1).ToString(), fresh.ToString());
  ASSERT_TRUE(store.CheckConsistency().ok()) << store.CheckConsistency();
}

// A trusted piece that no single entry covers still takes the exact union
// test: subsumed, with the whole bucket as absorbers, when the bucket's
// union covers it, and inserted when it reaches past the union.
TEST(TupleStoreTest, TrustedPieceCoveredOnlyByTheUnionIsSubsumed) {
  TupleStore store({1, 1});
  ASSERT_TRUE(store.InsertUnlessEmpty(Banded(7, 3, 0, 100, 1)));
  ASSERT_TRUE(store.InsertUnlessEmpty(Banded(7, 3, 50, 200, 1)));
  StoreStats stats;
  auto covered = store.Insert(OnlyPiece(Banded(7, 3, 10, 150, 1)).view(),
                              &stats, TupleStore::Row::kClosedPiece);
  ASSERT_TRUE(covered.ok()) << covered.status();
  EXPECT_FALSE(covered->inserted);
  EXPECT_EQ(std::vector<EntryId>(covered->absorbers.begin(),
                                 covered->absorbers.end()),
            (std::vector<EntryId>{0, 1}));
  EXPECT_EQ(stats.subsumed, 1);
  EXPECT_EQ(stats.subsumption_checks, 1);
  EXPECT_EQ(stats.subsumption_candidates, 2);
  EXPECT_EQ(stats.empty_dropped, 0);
  EXPECT_EQ(store.size(), 2u);

  auto reaching = store.Insert(OnlyPiece(Banded(7, 3, 10, 250, 1)).view(),
                               &stats, TupleStore::Row::kClosedPiece);
  ASSERT_TRUE(reaching.ok()) << reaching.status();
  EXPECT_TRUE(reaching->inserted);
  EXPECT_FALSE(reaching->new_signature);
  EXPECT_EQ(stats.subsumed, 1);
  EXPECT_EQ(stats.empty_dropped, 0);
}

// A one-shot answer's piece (TupleStore::Row::kAnswerPiece) is dropped
// only when one entry contains it: the piece the bucket's union alone
// covers is kept, and the ground set is unchanged.
TEST(TupleStoreTest, AnswerPieceSkipsTheUnionTest) {
  TupleStore store({1, 1});
  ASSERT_TRUE(store.InsertUnlessEmpty(Banded(7, 3, 0, 100, 1)));
  ASSERT_TRUE(store.InsertUnlessEmpty(Banded(7, 3, 50, 200, 1)));
  StoreStats stats;
  const GeneralizedTuple covered = OnlyPiece(Banded(7, 3, 10, 150, 1));
  auto kept = store.Insert(covered.view(), &stats,
                           TupleStore::Row::kAnswerPiece);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_TRUE(kept->inserted);
  EXPECT_FALSE(kept->new_signature);

  auto inside = store.Insert(OnlyPiece(Banded(7, 3, 60, 90, 1)).view(),
                             &stats, TupleStore::Row::kAnswerPiece);
  ASSERT_TRUE(inside.ok()) << inside.status();
  EXPECT_FALSE(inside->inserted);
  EXPECT_EQ(stats.subsumed, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.subsumption_checks, 2);
  EXPECT_EQ(store.size(), 3u);
  for (int64_t t : {3, 52, 101, 199, 206}) {
    EXPECT_EQ(store.ContainsGround({t}, {1}), t <= 200) << t;
  }
  ASSERT_TRUE(store.CheckConsistency().ok()) << store.CheckConsistency();
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
    EXPECT_EQ(std::vector<EntryId>(outcome->absorbers.begin(),
                                   outcome->absorbers.end()),
              steps[i].absorbers);
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
    // Lower bucket id: an out-of-range entry. Higher bucket id: a key
    // that no longer matches its entry. Distinct messages, so the walk
    // order is observable.
    TupleStoreTestPeer::AppendToBucketWithId(
        store, 1, static_cast<EntryId>(store.size() + 100));
    TupleStoreTestPeer::CorruptSignatureKey(
        store, static_cast<SignatureId>(signatures - 1), 0);
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
  const std::span<const EntryId> posting = store.PostingFor(0, 5);
  EXPECT_EQ(std::vector<EntryId>(posting.begin(), posting.end()),
            (std::vector<EntryId>{0, 3, 6, 9}));
  StoreStats probe;
  const int64_t scanned = static_cast<int64_t>(posting.size());
  probe.CountProbe(scanned, range - scanned);
  EXPECT_EQ(probe.index_probes, 1);
  EXPECT_EQ(probe.tuples_scanned, 4);
  EXPECT_EQ(probe.tuples_pruned, 8);
  // scanned + pruned always accounts for the full generation range.
  EXPECT_EQ(probe.tuples_scanned + probe.tuples_pruned, range);

  // A value with no posting yields zero candidates, all pruned.
  EXPECT_TRUE(store.PostingFor(0, 999).empty());
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
  const std::span<const EntryId> sevens = store.PostingFor(0, 7);
  EXPECT_EQ(std::vector<EntryId>(sevens.begin(), sevens.end()),
            (std::vector<EntryId>{0, 2}));
  EXPECT_EQ(
      store.EntriesWithSignature(store.tuple(4).ToTuple().free_extension()),
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
    EXPECT_TRUE(relation.CheckConsistency().ok()) << name;
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

// Every structure is a flat block that grows geometrically, so an insert
// grows approx_bytes() exactly when it grows a block: the count never
// falls while a store fills, and always equals the footprint's sum.
TEST(TupleStoreTest, ApproxBytesGrowsWithEveryInsertAndSurvivesMoves) {
  TupleStore store({1, 1});
  EXPECT_EQ(store.approx_bytes(), 0);
  int64_t previous = 0;
  for (int64_t offset = 0; offset < 6; ++offset) {
    ASSERT_TRUE(store.Insert(Banded(11, offset, 0, 20, offset))->inserted);
    EXPECT_GE(store.approx_bytes(), previous);
    EXPECT_EQ(store.approx_bytes(), store.footprint().total());
    if (offset == 0) {
      EXPECT_GT(store.approx_bytes(), 0);
    }
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

// A signature reads its key from a representative row. Erasing that row
// moves the representative to a surviving bucket entry; erasing every row
// of the signature moves the key to the erased-key arena, until a new row
// of the signature takes over. Either way the signature stays interned
// under its id, and lookups by key still find its entries.
TEST(TupleStoreTest, ErasingARepresentativeKeepsTheSignatureInterned) {
  const GeneralizedTuple s0 = Banded(7, 3, 0, 10, 1);
  const GeneralizedTuple s1 = Banded(7, 3, 100, 110, 1);
  const GeneralizedTuple s2 = Banded(7, 3, 200, 210, 1);
  const GeneralizedTuple t = Banded(7, 4, 0, 10, 2);
  const GeneralizedTuple u = Banded(7, 5, 0, 10, 3);
  TupleStore store({1, 1});
  for (const GeneralizedTuple* tuple : {&s0, &t, &s1, &s2, &u}) {
    ASSERT_TRUE(store.Insert(*tuple)->inserted);
  }
  // Signatures: S (entries 0, 2, 3) = 0, T (entry 1) = 1, U (entry 4) = 2.
  ASSERT_EQ(store.num_signatures(), 3u);
  ASSERT_EQ(TupleStoreTestPeer::Representative(store, 0), 0u);

  // S's representative goes; entries 2 and 3 survive as 1 and 2.
  store.EraseEntries({0});
  ASSERT_TRUE(store.CheckConsistency().ok()) << store.CheckConsistency();
  EXPECT_EQ(store.num_signatures(), 3u);
  EXPECT_EQ(TupleStoreTestPeer::Representative(store, 0), 1u);
  EXPECT_EQ(TupleStoreTestPeer::ErasedKeys(store), 0u);
  EXPECT_EQ(store.EntriesWithSignature(s0.free_extension()),
            (std::vector<EntryId>{1, 2}));
  EXPECT_EQ(store.TombstoneExact(s2), std::vector<EntryId>{2});
  store.Tombstone(1);
  EXPECT_TRUE(store.EntriesWithSignature(s0.free_extension()).empty());
  auto again = store.Insert(s0);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->inserted);
  EXPECT_FALSE(again->new_signature);
  EXPECT_EQ(again->id, 4u);
  EXPECT_EQ(store.num_signatures(), 3u);
  ASSERT_TRUE(store.CheckConsistency().ok()) << store.CheckConsistency();

  // Every row of S (1 and 2 dead, 4 live) and U's only row go: both keys
  // move to the erased-key arena, S's first.
  store.EraseEntries({1, 2, 3, 4});
  ASSERT_TRUE(store.CheckConsistency().ok()) << store.CheckConsistency();
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.num_signatures(), 3u);
  EXPECT_TRUE(TupleStoreTestPeer::HoldsErasedKey(store, 0));
  EXPECT_FALSE(TupleStoreTestPeer::HoldsErasedKey(store, 1));
  EXPECT_TRUE(TupleStoreTestPeer::HoldsErasedKey(store, 2));
  EXPECT_EQ(TupleStoreTestPeer::ErasedKeys(store), 2u);
  EXPECT_TRUE(store.EntriesWithSignature(s0.free_extension()).empty());
  EXPECT_TRUE(store.TombstoneExact(s0).empty());

  // A new row of S is no new signature; it becomes S's representative and
  // U's key takes S's place in the erased-key arena.
  again = store.Insert(s1);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->inserted);
  EXPECT_FALSE(again->new_signature);
  EXPECT_EQ(again->id, 1u);
  EXPECT_EQ(store.num_signatures(), 3u);
  EXPECT_EQ(TupleStoreTestPeer::Representative(store, 0), 1u);
  EXPECT_EQ(TupleStoreTestPeer::ErasedKeys(store), 1u);
  ASSERT_TRUE(store.CheckConsistency().ok()) << store.CheckConsistency();
  EXPECT_EQ(store.TombstoneExact(s1), std::vector<EntryId>{1});
  EXPECT_EQ(store.TombstoneExact(t), std::vector<EntryId>{0});
  again = store.Insert(u);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->new_signature);
  EXPECT_EQ(store.num_signatures(), 3u);
  EXPECT_EQ(TupleStoreTestPeer::ErasedKeys(store), 0u);
  EXPECT_EQ(store.live_size(), 1u);
  ASSERT_TRUE(store.CheckConsistency().ok()) << store.CheckConsistency();
}

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define LRPDB_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define LRPDB_TEST_SANITIZED 1
#endif

// approx_bytes() is the store's real footprint: within 25% of what the C
// heap reports for a fill in the closed_form_eval shape (one lrp of period
// 168, two data columns, a lower bound; about one signature in twelve
// holds a second entry in a disjoint window), and at most 150 B per stored
// tuple.
TEST(TupleStoreTest, ApproxBytesTracksTheAllocator) {
#if defined(LRPDB_TEST_SANITIZED) || !defined(__GLIBC__)
  GTEST_SKIP() << "mallinfo2() sees only glibc's own allocator";
#else
  auto heap_in_use = [] {
    const auto info = ::mallinfo2();
    return static_cast<int64_t>(info.uordblks + info.hblkhd);
  };
  constexpr int kTuples = 30000;
  const int64_t before = heap_in_use();
  {
    TupleStore store({1, 2});
    for (int i = 0; i < kTuples; ++i) {
      const bool second = i % 12 == 11;
      const int base = second ? i - 1 : i;
      // The second entry's window ends before the first one's begins.
      Dbm window(1);
      window.AddLowerBound(1, base % 50 - (second ? 1000 : 0));
      if (second) window.AddUpperBound(1, base % 50 - 500);
      auto outcome = store.Insert(GeneralizedTuple(
          {Lrp(168, base % 168)}, {base % 97, base / 168}, window));
      ASSERT_TRUE(outcome.ok() && outcome->inserted) << i;
    }
    const int64_t heap = heap_in_use() - before;
    const double ratio = static_cast<double>(store.approx_bytes()) / heap;
    EXPECT_GE(ratio, 0.75) << store.approx_bytes() << " vs heap " << heap;
    EXPECT_LE(ratio, 1.25) << store.approx_bytes() << " vs heap " << heap;
    EXPECT_LE(heap / static_cast<int64_t>(store.size()), 150);
  }
#endif
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
