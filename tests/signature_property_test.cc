// Property tests for signature interning (the tuple store's free-extension
// key): syntactically different lrp spellings of the same ground set must
// canonicalize to one signature, equal ground sets must residue-normalize
// to the same piece classes, and the algebra operations that rebuild
// relations (shift, join, project) must hand back stores whose signature
// and posting indexes still satisfy every invariant.
#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/gdb/algebra.h"
#include "src/gdb/normalized_tuple.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {
namespace {

// Four spellings of "t congruent to 3 mod 7": Lrp canonicalizes (a, b) to
// (|a|, b mod |a|) with the offset in [0, |a|).
const std::pair<int64_t, int64_t> kSpellingsOf7n3[] = {
    {7, 3}, {-7, 3}, {7, -4}, {7, 710},
};

TEST(SignatureInterningTest, NonCanonicalLrpSpellingsShareOneSignature) {
  TupleStore store({1, 0});
  StoreStats stats;
  for (auto [a, b] : kSpellingsOf7n3) {
    auto outcome =
        store.Insert(GeneralizedTuple({Lrp(a, b)}, {}, Dbm(1)), &stats);
    ASSERT_TRUE(outcome.ok());
  }
  // One signature was interned; the three re-spellings were subsumed by the
  // first (identical ground set, same bucket).
  EXPECT_EQ(store.num_signatures(), 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(stats.subsumed, 3);
  EXPECT_TRUE(store.CheckConsistency().ok());

  // The interned key is the canonical form.
  const Lrp& stored = store.tuple(0).lrp(0);
  EXPECT_EQ(stored.period(), 7);
  EXPECT_EQ(stored.offset(), 3);
}

TEST(SignatureInterningTest, FreeExtensionEqualityMatchesCanonicalForm) {
  GeneralizedTuple canonical({Lrp(7, 3), Lrp(4, 1)}, {9}, Dbm(2));
  TupleStore store({2, 1});
  ASSERT_TRUE(store.InsertUnlessEmpty(canonical));
  for (auto [a, b] : kSpellingsOf7n3) {
    GeneralizedTuple spelled({Lrp(a, b), Lrp(-4, -3)}, {9}, Dbm(2));
    EXPECT_TRUE(spelled.free_extension() == canonical.free_extension());
    // The store's signature table hashes and files it under the same key.
    EXPECT_EQ(store.EntriesWithSignature(spelled.free_extension()),
              (std::vector<EntryId>{0}));
  }
  // Different data constants or a different congruence is a different key.
  GeneralizedTuple other_data({Lrp(7, 3), Lrp(4, 1)}, {8}, Dbm(2));
  GeneralizedTuple other_lrp({Lrp(7, 4), Lrp(4, 1)}, {9}, Dbm(2));
  EXPECT_FALSE(other_data.free_extension() == canonical.free_extension());
  EXPECT_FALSE(other_lrp.free_extension() == canonical.free_extension());
}

// Randomized property: two tuples with the same ground set -- one spelled
// canonically, one with negated period / shifted offset and the band
// constraint written against the other congruence representative -- must
// produce identical residue-normalized pieces (same period, residues, and
// quotient ground sets), and hence the same signature after normalization.
TEST(SignatureInterningTest, EqualGroundSetsNormalizeToEqualPieces) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int64_t> period_dist(1, 12);
  std::uniform_int_distribution<int64_t> offset_dist(-30, 30);
  std::uniform_int_distribution<int64_t> lo_dist(-20, 20);
  std::uniform_int_distribution<int64_t> width_dist(0, 40);
  for (int trial = 0; trial < 50; ++trial) {
    int64_t period = period_dist(rng);
    int64_t offset = offset_dist(rng);
    int64_t lo = lo_dist(rng);
    int64_t hi = lo + width_dist(rng);
    Dbm band(1);
    band.AddLowerBound(1, lo);
    band.AddUpperBound(1, hi);
    GeneralizedTuple canonical({Lrp(period, offset)}, {}, band);
    GeneralizedTuple respelled({Lrp(-period, offset - 5 * period)}, {}, band);
    ASSERT_TRUE(canonical.free_extension() == respelled.free_extension())
        << "trial " << trial;

    auto a = NormalizedTuple::Normalize(canonical);
    auto b = NormalizedTuple::Normalize(respelled);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size()) << "trial " << trial;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_TRUE((*a)[i].SameClassAs((*b)[i])) << "trial " << trial;
      EXPECT_TRUE((*a)[i].ContainedIn((*b)[i])) << "trial " << trial;
      EXPECT_TRUE((*b)[i].ContainedIn((*a)[i])) << "trial " << trial;
    }
    // And the ground sets really are equal on a window spanning the band.
    GeneralizedRelation ra({1, 0});
    GeneralizedRelation rb({1, 0});
    ASSERT_TRUE(ra.Insert(canonical).ok());
    ASSERT_TRUE(rb.Insert(respelled).ok());
    EXPECT_EQ(ra.EnumerateGround(lo - 2, hi + 2),
              rb.EnumerateGround(lo - 2, hi + 2))
        << "trial " << trial;
  }
}

// A relation of randomized banded periodic tuples over two temporal and one
// data column, for feeding the algebra consistency checks below.
GeneralizedRelation RandomRelation(std::mt19937& rng, int tuples) {
  std::uniform_int_distribution<int64_t> period_dist(1, 8);
  std::uniform_int_distribution<int64_t> offset_dist(0, 40);
  std::uniform_int_distribution<int64_t> gap_dist(0, 9);
  std::uniform_int_distribution<int> data_dist(0, 3);
  GeneralizedRelation r({2, 1});
  for (int i = 0; i < tuples; ++i) {
    Dbm c(2);
    int64_t lo = offset_dist(rng);
    c.AddLowerBound(1, lo);
    c.AddUpperBound(1, lo + gap_dist(rng) + 20);
    c.AddDifferenceUpperBound(2, 1, gap_dist(rng) + 1);
    c.AddDifferenceUpperBound(1, 2, 0);
    GeneralizedTuple tuple(
        {Lrp(period_dist(rng), offset_dist(rng)),
         Lrp(period_dist(rng), offset_dist(rng))},
        {data_dist(rng)}, c);
    EXPECT_TRUE(r.Insert(std::move(tuple)).ok());
  }
  return r;
}

// Signature-level invariants every relation-producing operation must keep:
// the store's indexes are consistent, and every stored lrp is canonical
// (period > 0, offset in [0, period)) so signature equality is decided by
// representation equality.
void ExpectCanonicalStore(const GeneralizedRelation& r, const char* what) {
  EXPECT_TRUE(r.CheckConsistency().ok()) << what;
  for (size_t i = 0; i < r.size(); ++i) {
    for (int c = 0; c < r.schema().temporal_arity; ++c) {
      const Lrp& lrp = r.tuple(i).lrp(c);
      EXPECT_GT(lrp.period(), 0) << what;
      EXPECT_GE(lrp.offset(), 0) << what;
      EXPECT_LT(lrp.offset(), lrp.period()) << what;
    }
  }
}

TEST(SignatureConsistencyTest, ShiftJoinProjectPreserveIndexInvariants) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    GeneralizedRelation r = RandomRelation(rng, 6);
    GeneralizedRelation s = RandomRelation(rng, 4);
    ExpectCanonicalStore(r, "input r");

    // Shift: column translation re-spells every lrp offset.
    auto shifted = ShiftColumn(r, 0, 13);
    ASSERT_TRUE(shifted.ok()) << shifted.status();
    ExpectCanonicalStore(*shifted, "shift");
    auto shifted_back = ShiftColumn(*shifted, 0, -13);
    ASSERT_TRUE(shifted_back.ok());
    // Exact SameGroundSet would align every tuple pair to the lcm of all
    // periods (exponential for coprime periods); a window covering all the
    // bands decides equality for these bounded relations.
    EXPECT_EQ(r.EnumerateGround(-5, 95), shifted_back->EnumerateGround(-5, 95))
        << "shift by 13 then -13 changed the ground set";

    // Join: rebuilds tuples over the concatenated schema.
    auto joined = JoinOnEqualities(r, s, {{1, 0, 0}}, {{0, 0}});
    ASSERT_TRUE(joined.ok()) << joined.status();
    ExpectCanonicalStore(*joined, "join");

    // Project: the residue-splitting path plus coalescing.
    auto projected = Project(r, {1}, {0});
    ASSERT_TRUE(projected.ok()) << projected.status();
    ExpectCanonicalStore(*projected, "project");

    // WithColumnShifted at the tuple level keeps the signature key
    // canonical too (this is what the evaluator's head construction uses).
    for (size_t i = 0; i < r.size(); ++i) {
      GeneralizedTuple shifted_tuple =
          r.tuple(i).ToTuple().WithColumnShifted(0, -7);
      const Lrp& lrp = shifted_tuple.lrp(0);
      EXPECT_GE(lrp.offset(), 0);
      EXPECT_LT(lrp.offset(), lrp.period());
    }
  }
}

}  // namespace
}  // namespace lrpdb
