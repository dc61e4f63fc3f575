#include <algorithm>
#include <random>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/fo/fo.h"
#include "src/gdb/algebra.h"
#include "src/gdb/database.h"
#include "src/gdb/generalized_tuple.h"
#include "src/gdb/normalized_tuple.h"
#include "src/gdb/periodic_bridge.h"
#include "src/gdb/serialize.h"
#include "src/gdb/tuple_store.h"
#include "tests/fo_query.h"

namespace lrpdb {
namespace {

// The train tuple of Example 2.1: (40n1+5, 40n2+65) with T1 >= 0 and
// T2 = T1 + 60 (data columns elided here; added in specific tests).
GeneralizedTuple TrainTuple() {
  Dbm c(2);
  c.AddLowerBound(1, 0);
  c.AddDifferenceEquality(2, 1, 60);
  return GeneralizedTuple({Lrp(40, 5), Lrp(40, 65)}, {}, c);
}

TEST(GeneralizedTupleTest, Example21GroundSet) {
  GeneralizedTuple train = TrainTuple();
  EXPECT_TRUE(train.ContainsGround({5, 65}, {}));
  EXPECT_TRUE(train.ContainsGround({45, 105}, {}));
  EXPECT_FALSE(train.ContainsGround({-35, 25}, {}));  // T1 >= 0 violated.
  EXPECT_FALSE(train.ContainsGround({5, 105}, {}));   // Not 60 apart.
  EXPECT_FALSE(train.ContainsGround({6, 66}, {}));    // Not on the lrp.
}

TEST(GeneralizedTupleTest, ColumnShift) {
  // Both columns translated by 40: the query's answer at (t1, t2) is the
  // train tuple at (t1 - 40, t2 - 40).
  std::map<std::string, GeneralizedRelation> relations;
  relations.emplace("train", GeneralizedRelation({2, 0}));
  ASSERT_TRUE(relations.at("train").InsertUnlessEmpty(TrainTuple()));
  Database db;
  auto later = AnswerFo("train(t1 - 40, t2 - 40)", relations, &db);
  ASSERT_TRUE(later.ok()) << later.status();
  EXPECT_TRUE(later->relation.ContainsGround({45, 105}, {}));
  EXPECT_FALSE(later->relation.ContainsGround({5, 65}, {}));  // T1 >= 40.
}

TEST(GeneralizedTupleTest, PaperExample21TupleWithConstraint) {
  // (2n1+3, 2n2+5) with T2 = T1 + 2 represents {..., (-1,1), (1,3), (3,5),...}
  Dbm c(2);
  c.AddDifferenceEquality(2, 1, 2);
  GeneralizedTuple t({Lrp(2, 3), Lrp(2, 5)}, {}, c);
  EXPECT_TRUE(t.ContainsGround({-1, 1}, {}));
  EXPECT_TRUE(t.ContainsGround({1, 3}, {}));
  EXPECT_TRUE(t.ContainsGround({3, 5}, {}));
  EXPECT_FALSE(t.ContainsGround({1, 5}, {}));
  EXPECT_FALSE(t.ContainsGround({2, 4}, {}));
}

TEST(NormalizedTupleTest, ResidueIncompatibilityDetected) {
  // t1 in 2n, t2 in 2n+1, t1 = t2 -- plain DBM satisfiable, ground set empty.
  Dbm c(2);
  c.AddDifferenceEquality(1, 2, 0);
  GeneralizedTuple t({Lrp(2, 0), Lrp(2, 1)}, {}, c);
  EXPECT_TRUE(t.ConstraintSatisfiable());
  auto empty = GroundSetEmpty(t);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(*empty);
}

TEST(NormalizedTupleTest, NormalizePiecesPartitionGroundSet) {
  // Mixed periods: t1 in 4n+1, t2 in 6n+5, |t1 - t2| <= 9.
  Dbm c(2);
  c.AddDifferenceUpperBound(1, 2, 9);
  c.AddDifferenceUpperBound(2, 1, 9);
  GeneralizedTuple t({Lrp(4, 1), Lrp(6, 5)}, {}, c);
  auto pieces = NormalizedTuple::Normalize(t);
  ASSERT_TRUE(pieces.ok());
  // lcm = 12; 3 residues for t1 x 2 residues for t2 = 6 combos, all
  // satisfiable since the band constraint allows any residue pair.
  EXPECT_EQ(pieces->size(), 6u);
  for (int64_t t1 = -30; t1 <= 30; ++t1) {
    for (int64_t t2 = -30; t2 <= 30; ++t2) {
      bool in_tuple = t.ContainsGround({t1, t2}, {});
      int count = 0;
      for (const NormalizedTuple& piece : *pieces) {
        if (piece.ContainsGround({t1, t2}, {})) ++count;
      }
      ASSERT_EQ(count, in_tuple ? 1 : 0) << t1 << "," << t2;
    }
  }
}

// A free column walks only the residues of the times in its closed
// interval when that interval is shorter than the common period, so three
// coprime periods bounded to [0, 200] (5 x 4 x 4 times) normalize into 80
// one-point pieces instead of being refused for the 2e10 residue
// combinations of L = 47 * 53 * 59.
TEST(NormalizedTupleTest, BoundedColumnsCountOnlyTheirIntervalsResidues) {
  Dbm c(3);
  for (int v = 1; v <= 3; ++v) {
    c.AddLowerBound(v, 0);
    c.AddUpperBound(v, 200);
  }
  GeneralizedTuple t({Lrp(47, 0), Lrp(53, 0), Lrp(59, 0)}, {}, c);
  auto pieces = NormalizedTuple::Normalize(t);
  ASSERT_TRUE(pieces.ok()) << pieces.status();
  EXPECT_EQ(pieces->size(), 80u);
  for (const NormalizedTuple& piece : *pieces) {
    EXPECT_EQ(piece.common_period(), 47 * 53 * 59);
    EXPECT_TRUE(piece.ContainsGround(piece.residues(), {}));
  }
}

// An interval that wraps past a multiple of L walks its residues in
// ascending order all the same: t1 in 2n and [9, 15] at L = 12 takes the
// times 10, 12, 14, i.e. residues 0, 2, 10.
TEST(NormalizedTupleTest, WrappedIntervalKeepsResidueOrder) {
  Dbm c(2);
  c.AddLowerBound(1, 9);
  c.AddUpperBound(1, 15);
  GeneralizedTuple t({Lrp(2, 0), Lrp(12, 5)}, {}, c);
  auto pieces = NormalizedTuple::Normalize(t);
  ASSERT_TRUE(pieces.ok()) << pieces.status();
  std::vector<std::vector<int64_t>> residues;
  for (const NormalizedTuple& piece : *pieces) {
    residues.push_back(piece.residues());
  }
  EXPECT_EQ(residues, (std::vector<std::vector<int64_t>>{
                          {0, 5}, {2, 5}, {10, 5}}));
  EXPECT_TRUE((*pieces)[0].ContainsGround({12, 5}, {}));
  EXPECT_TRUE((*pieces)[1].ContainsGround({14, -7}, {}));
  EXPECT_TRUE((*pieces)[2].ContainsGround({10, 17}, {}));
  EXPECT_FALSE((*pieces)[2].ContainsGround({22, 17}, {}));
}

TEST(NormalizedTupleTest, RoundTripThroughGeneralizedTuple) {
  Dbm c(2);
  c.AddLowerBound(1, 0);
  c.AddDifferenceEquality(2, 1, 2);
  GeneralizedTuple t({Lrp(168, 8), Lrp(168, 10)}, {}, c);
  auto pieces = NormalizedTuple::Normalize(t);
  ASSERT_TRUE(pieces.ok());
  ASSERT_EQ(pieces->size(), 1u);
  GeneralizedTuple back = (*pieces)[0].ToGeneralizedTuple();
  for (int64_t t1 = -200; t1 <= 400; ++t1) {
    int64_t t2 = t1 + 2;
    ASSERT_EQ(back.ContainsGround({t1, t2}, {}),
              t.ContainsGround({t1, t2}, {}))
        << t1;
  }
}

TEST(NormalizedTupleTest, AlignToRefinesExactly) {
  Dbm c(1);
  c.AddLowerBound(1, 3);
  GeneralizedTuple t({Lrp(3, 2)}, {}, c);
  auto pieces = NormalizedTuple::Normalize(t);
  ASSERT_TRUE(pieces.ok());
  ASSERT_EQ(pieces->size(), 1u);
  auto refined = (*pieces)[0].AlignTo(12);
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined->size(), 4u);
  for (int64_t v = -20; v <= 60; ++v) {
    bool in_original = t.ContainsGround({v}, {});
    int count = 0;
    for (const NormalizedTuple& piece : *refined) {
      if (piece.ContainsGround({v}, {})) ++count;
    }
    ASSERT_EQ(count, in_original ? 1 : 0) << v;
  }
}

TEST(NormalizedTupleTest, ProjectTemporalIsExactWithCongruences) {
  // t1 = t2, t2 in 2n: projection onto t1 must keep the evenness.
  Dbm c(2);
  c.AddDifferenceEquality(1, 2, 0);
  GeneralizedTuple t({Lrp(1, 0), Lrp(2, 0)}, {}, c);
  auto pieces = NormalizedTuple::Normalize(t);
  ASSERT_TRUE(pieces.ok());
  std::set<int64_t> projected_members;
  for (const NormalizedTuple& piece : *pieces) {
    NormalizedTuple p = piece.ProjectTemporal({0});
    for (int64_t v = -20; v <= 20; ++v) {
      if (p.ContainsGround({v}, {})) projected_members.insert(v);
    }
  }
  for (int64_t v = -20; v <= 20; ++v) {
    EXPECT_EQ(projected_members.count(v) > 0, v % 2 == 0) << v;
  }
}

// The caps are constants: three coprime periods just above 2^16 have an
// lcm (~2.8e14) past kMaxCommonPeriod (2^40).
TEST(NormalizeCapsTest, PeriodBlowupReturnsResourceExhausted) {
  GeneralizedTuple t({Lrp(65537, 0), Lrp(65539, 0), Lrp(65543, 0)}, {},
                     Dbm(3));
  auto pieces = NormalizedTuple::Normalize(t);
  ASSERT_FALSE(pieces.ok());
  EXPECT_EQ(pieces.status().code(), StatusCode::kResourceExhausted);
}

// Two free columns of coprime periods 257 and 263 align to L = 67,591, with
// 263 x 257 = 67,591 residue combinations: past kMaxResiduePieces (2^16).
TEST(NormalizeCapsTest, PieceBlowupReturnsResourceExhausted) {
  GeneralizedTuple t({Lrp(257, 0), Lrp(263, 0)}, {}, Dbm(2));
  auto pieces = NormalizedTuple::Normalize(t);
  ASSERT_FALSE(pieces.ok());
  EXPECT_EQ(pieces.status().code(), StatusCode::kResourceExhausted);
}

// 251 x 257 = 64,507 combinations stay under the cap, and every one of
// them is a satisfiable piece of the unconstrained tuple.
TEST(NormalizeCapsTest, PiecesUnderTheCapNormalize) {
  GeneralizedTuple t({Lrp(251, 0), Lrp(257, 0)}, {}, Dbm(2));
  auto pieces = NormalizedTuple::Normalize(t);
  ASSERT_TRUE(pieces.ok()) << pieces.status();
  EXPECT_EQ(pieces->size(), 64507u);
  EXPECT_LE(static_cast<int64_t>(pieces->size()), kMaxResiduePieces);
  EXPECT_EQ(pieces->front().common_period(), 251 * 257);
}

// --- GeneralizedRelation ---

TEST(GeneralizedRelationTest, InsertDetectsSubsumption) {
  GeneralizedRelation r({1, 0});
  Dbm wide(1);
  wide.AddLowerBound(1, 0);
  auto first = r.Insert(GeneralizedTuple({Lrp(5, 0)}, {}, wide));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->inserted);

  // Same lrp, tighter constraint: subsumed.
  Dbm narrow(1);
  narrow.AddLowerBound(1, 10);
  auto second = r.Insert(GeneralizedTuple({Lrp(5, 0)}, {}, narrow));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->inserted);
  EXPECT_EQ(r.size(), 1u);

  // Coarser lrp with different members: new.
  auto third = r.Insert(GeneralizedTuple::Unconstrained({Lrp(5, 1)}, {}));
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->inserted);
}

TEST(GeneralizedRelationTest, InsertUnionSubsumption) {
  // {5n : T >= 0} u {5n : T < 0} subsumes {5n} even though neither single
  // tuple does.
  GeneralizedRelation r({1, 0});
  Dbm pos(1);
  pos.AddLowerBound(1, 0);
  Dbm neg(1);
  neg.AddUpperBound(1, -1);
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp(5, 0)}, {}, pos)).ok());
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp(5, 0)}, {}, neg)).ok());
  auto whole = r.Insert(GeneralizedTuple::Unconstrained({Lrp(5, 0)}, {}));
  ASSERT_TRUE(whole.ok());
  EXPECT_FALSE(whole->inserted);
}

TEST(GeneralizedRelationTest, EnumerateGroundWindow) {
  GeneralizedRelation r({2, 0});
  Dbm c(2);
  c.AddDifferenceEquality(2, 1, 60);
  c.AddLowerBound(1, 0);
  ASSERT_TRUE(
      r.Insert(GeneralizedTuple({Lrp(40, 5), Lrp(40, 65)}, {}, c)).ok());
  std::vector<GroundTuple> ground = r.EnumerateGround(0, 200);
  ASSERT_EQ(ground.size(), 4u);
  EXPECT_EQ(ground[0].times, (std::vector<int64_t>{5, 65}));
  EXPECT_EQ(ground[1].times, (std::vector<int64_t>{45, 105}));
  EXPECT_EQ(ground[2].times, (std::vector<int64_t>{85, 145}));
  EXPECT_EQ(ground[3].times, (std::vector<int64_t>{125, 185}));
}

// --- Algebra ---

// Brute-force reference: set of ground tuples in a window.
std::set<GroundTuple> GroundSet(const GeneralizedRelation& r, int64_t lo,
                                int64_t hi) {
  auto v = r.EnumerateGround(lo, hi);
  return {v.begin(), v.end()};
}

// One-column relations a and b, and their intersection as the FO query
// a(t) & b(t).
struct RelationPair {
  std::map<std::string, GeneralizedRelation> relations;
  GeneralizedRelation& a =
      relations.emplace("a", RelationSchema{1, 0}).first->second;
  GeneralizedRelation& b =
      relations.emplace("b", RelationSchema{1, 0}).first->second;

  StatusOr<GeneralizedRelation> Intersection() const {
    Database db;
    LRPDB_ASSIGN_OR_RETURN(FoResult answer,
                           AnswerFo("a(t) & b(t)", relations, &db));
    return std::move(answer.relation);
  }
};

TEST(AlgebraTest, IntersectUnionDifferenceAgainstBruteForce) {
  RelationPair pair;
  GeneralizedRelation& a = pair.a;
  GeneralizedRelation& b = pair.b;
  Dbm nonneg(1);
  nonneg.AddLowerBound(1, 0);
  ASSERT_TRUE(a.Insert(GeneralizedTuple({Lrp(4, 1)}, {}, nonneg)).ok());
  ASSERT_TRUE(a.Insert(GeneralizedTuple::Unconstrained({Lrp(6, 3)}, {}))
                  .ok());
  ASSERT_TRUE(b.Insert(GeneralizedTuple::Unconstrained({Lrp(2, 1)}, {}))
                  .ok());

  auto uni = Union(a, b);
  auto diff = Difference(a, b);
  ASSERT_TRUE(uni.ok());
  ASSERT_TRUE(diff.ok());
  auto inter = pair.Intersection();
  ASSERT_TRUE(inter.ok()) << inter.status();

  auto sa = GroundSet(a, -50, 50);
  auto sb = GroundSet(b, -50, 50);
  auto si = GroundSet(*inter, -50, 50);
  auto su = GroundSet(*uni, -50, 50);
  auto sd = GroundSet(*diff, -50, 50);

  std::set<GroundTuple> expect_i;
  std::set<GroundTuple> expect_u = sa;
  std::set<GroundTuple> expect_d;
  for (const auto& t : sa) {
    if (sb.count(t)) expect_i.insert(t);
    if (!sb.count(t)) expect_d.insert(t);
  }
  expect_u.insert(sb.begin(), sb.end());
  EXPECT_EQ(si, expect_i);
  EXPECT_EQ(su, expect_u);
  EXPECT_EQ(sd, expect_d);
}

TEST(AlgebraTest, JoinOnEqualitiesFindsConnections) {
  // Trains A->B arriving at 40n+65 ; trains B->C departing at 40n+65 + 10.
  Database db;
  DataValue a_city = db.Constant("a");
  DataValue b_city = db.Constant("b");
  DataValue c_city = db.Constant("c");

  std::map<std::string, GeneralizedRelation> relations;
  GeneralizedRelation& leg1 =
      relations.emplace("leg1", RelationSchema{2, 2}).first->second;
  Dbm c1(2);
  c1.AddDifferenceEquality(2, 1, 60);
  ASSERT_TRUE(leg1.Insert(GeneralizedTuple({Lrp(40, 5), Lrp(40, 65)},
                                           {a_city, b_city}, c1))
                  .ok());
  GeneralizedRelation& leg2 =
      relations.emplace("leg2", RelationSchema{2, 2}).first->second;
  Dbm c2(2);
  c2.AddDifferenceEquality(2, 1, 30);
  ASSERT_TRUE(leg2.Insert(GeneralizedTuple({Lrp(40, 75), Lrp(40, 105)},
                                           {b_city, c_city}, c2))
                  .ok());
  // Join: leg2 departs exactly 10 after leg1 arrives, and the transfer city
  // matches.
  auto joined = AnswerFo(
      "leg1(t1, t2, A, B) & leg2(t3, t4, B, C) & t3 = t2 + 10", relations,
      &db);
  ASSERT_TRUE(joined.ok()) << joined.status();
  ASSERT_EQ(joined->relation.size(), 1u);
  EXPECT_TRUE(joined->relation.ContainsGround({5, 65, 75, 105},
                                              {a_city, b_city, c_city}));
  EXPECT_FALSE(joined->relation.ContainsGround({5, 65, 115, 145},
                                               {a_city, b_city, c_city}));
}

TEST(AlgebraTest, ProjectKeepsCongruenceInformation) {
  // R(t1, t2) with t2 = t1 and t2 in 3n: exists t2 leaves t1 in 3n.
  std::map<std::string, GeneralizedRelation> relations;
  GeneralizedRelation& r =
      relations.emplace("r", RelationSchema{2, 0}).first->second;
  Dbm c(2);
  c.AddDifferenceEquality(1, 2, 0);
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp(1, 0), Lrp(3, 0)}, {}, c))
                  .ok());
  Database db;
  auto projected = AnswerFo("exists t2 (r(t1, t2))", relations, &db);
  ASSERT_TRUE(projected.ok()) << projected.status();
  for (int64_t t = -15; t <= 15; ++t) {
    EXPECT_EQ(projected->relation.ContainsGround({t}, {}),
              FloorMod(t, 3) == 0)
        << t;
  }
}

TEST(AlgebraTest, ComplementPartitionsUniverse) {
  GeneralizedRelation r({1, 1});
  Interner interner;
  DataValue red = interner.Intern("red");
  DataValue blue = interner.Intern("blue");
  Dbm window(1);
  window.AddLowerBound(1, 0);
  window.AddUpperBound(1, 9);
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp(2, 0)}, {red}, window)).ok());

  auto comp = Complement(r, {{red}, {blue}});
  ASSERT_TRUE(comp.ok());
  for (int64_t t = -10; t <= 20; ++t) {
    for (DataValue d : {red, blue}) {
      bool in_r = r.ContainsGround({t}, {d});
      bool in_c = comp->ContainsGround({t}, {d});
      EXPECT_NE(in_r, in_c) << "t=" << t << " d=" << d;
    }
  }
}

TEST(AlgebraTest, SameGroundSetIgnoresRepresentation) {
  // {2n} u {2n+1} == {n}.
  GeneralizedRelation split({1, 0});
  ASSERT_TRUE(
      split.Insert(GeneralizedTuple::Unconstrained({Lrp(2, 0)}, {})).ok());
  ASSERT_TRUE(
      split.Insert(GeneralizedTuple::Unconstrained({Lrp(2, 1)}, {})).ok());
  GeneralizedRelation whole({1, 0});
  ASSERT_TRUE(
      whole.Insert(GeneralizedTuple::Unconstrained({Lrp(1, 0)}, {})).ok());
  auto same = SameGroundSet(split, whole);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same);

  GeneralizedRelation missing({1, 0});
  ASSERT_TRUE(
      missing.Insert(GeneralizedTuple::Unconstrained({Lrp(2, 0)}, {}))
          .ok());
  auto not_same = SameGroundSet(missing, whole);
  ASSERT_TRUE(not_same.ok());
  EXPECT_FALSE(*not_same);
}

// Property: randomized single-column relations -- difference and union match
// brute force.
class AlgebraRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgebraRandomTest, BooleanOpsMatchBruteForce) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> period_dist(1, 6);
  std::uniform_int_distribution<int> bound_dist(-12, 12);
  std::uniform_int_distribution<int> tuples_dist(1, 3);
  auto fill_random = [&](GeneralizedRelation& r) {
    int n = tuples_dist(rng);
    for (int i = 0; i < n; ++i) {
      int p = period_dist(rng);
      Lrp lrp(p, bound_dist(rng));
      Dbm c(1);
      int lo = bound_dist(rng);
      c.AddLowerBound(1, lo);
      c.AddUpperBound(1, lo + 2 * period_dist(rng) * period_dist(rng));
      LRPDB_CHECK_OK(r.Insert(GeneralizedTuple({lrp}, {}, c)).status());
    }
  };
  for (int iter = 0; iter < 25; ++iter) {
    RelationPair pair;
    const GeneralizedRelation& a = pair.a;
    const GeneralizedRelation& b = pair.b;
    fill_random(pair.a);
    fill_random(pair.b);
    auto diff = Difference(a, b);
    auto uni = Union(a, b);
    auto inter = pair.Intersection();
    ASSERT_TRUE(diff.ok());
    ASSERT_TRUE(uni.ok());
    ASSERT_TRUE(inter.ok()) << inter.status();
    for (int64_t t = -40; t <= 80; ++t) {
      bool in_a = a.ContainsGround({t}, {});
      bool in_b = b.ContainsGround({t}, {});
      ASSERT_EQ(diff->ContainsGround({t}, {}), in_a && !in_b)
          << "diff, iter " << iter << ", t=" << t;
      ASSERT_EQ(uni->ContainsGround({t}, {}), in_a || in_b)
          << "union, iter " << iter << ", t=" << t;
      ASSERT_EQ(inter->ContainsGround({t}, {}), in_a && in_b)
          << "intersect, iter " << iter << ", t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraRandomTest, ::testing::Range(1, 9));

// --- Database ---

TEST(DatabaseTest, DeclareAddQuery) {
  Database db;
  ASSERT_TRUE(db.Declare("train", {2, 2}).ok());
  // Re-declaring with the same schema is fine; different schema is not.
  EXPECT_TRUE(db.Declare("train", {2, 2}).ok());
  EXPECT_FALSE(db.Declare("train", {1, 2}).ok());

  DataValue liege = db.Constant("liege");
  DataValue brussels = db.Constant("brussels");
  Dbm c(2);
  c.AddLowerBound(1, 0);
  c.AddDifferenceEquality(2, 1, 60);
  ASSERT_TRUE(db.AddTuple("train", GeneralizedTuple({Lrp(40, 5), Lrp(40, 65)},
                                                    {liege, brussels}, c))
                  .ok());
  auto relation = db.Relation("train");
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE((*relation)->ContainsGround({45, 105}, {liege, brussels}));
  EXPECT_FALSE(db.AddTuple("bus", GeneralizedTuple::Unconstrained({}, {})).ok());
  EXPECT_FALSE(db.Relation("bus").ok());
}

// A retracted (tombstoned) entry is invisible to every reader outside the
// store: each operator over a relation holding one gives exactly what it
// gives over the relation built from the live tuples alone.
TEST(TombstoneVisibilityTest, ReadersSeeOnlyLiveEntries) {
  Dbm upto50(1);
  upto50.AddUpperBound(1, 50);
  const std::vector<GeneralizedTuple> live = {
      GeneralizedTuple::Unconstrained({Lrp(10, 1)}, {}),
      GeneralizedTuple({Lrp(7, 2)}, {}, upto50)};
  const GeneralizedTuple retracted =
      GeneralizedTuple::Unconstrained({Lrp(4, 3)}, {});
  Database db;
  Database clean;
  ASSERT_TRUE(db.Declare("r", RelationSchema{1, 0}).ok());
  ASSERT_TRUE(clean.Declare("r", RelationSchema{1, 0}).ok());
  ASSERT_TRUE(db.AddTuple("r", live[0]).ok());
  ASSERT_TRUE(db.AddTuple("r", retracted).ok());
  ASSERT_TRUE(db.AddTuple("r", live[1]).ok());
  for (const GeneralizedTuple& t : live) {
    ASSERT_TRUE(clean.AddTuple("r", t).ok());
  }
  (*db.MutableRelation("r"))->Tombstone(1);
  const GeneralizedRelation& r = **db.Relation("r");
  const GeneralizedRelation& expected = **clean.Relation("r");
  ASSERT_EQ(r.live_size(), 2u);

  EXPECT_EQ(Union(r, r)->ToString(), Union(expected, expected)->ToString());
  EXPECT_EQ(Complement(r, {{}})->ToString(),
            Complement(expected, {{}})->ToString());
  EXPECT_EQ(SerializeRelationAsFacts("r", r, db.interner()),
            SerializeRelationAsFacts("r", expected, clean.interner()));
  EXPECT_EQ(*ToEventuallyPeriodicSet(r), *ToEventuallyPeriodicSet(expected));

  // The clause kernel's selection and projection, through FO queries.
  for (const char* source : {"r(t)", "r(t) & t >= 5"}) {
    auto query = ParseFoQuery(source, &db);
    auto clean_query = ParseFoQuery(source, &clean);
    ASSERT_TRUE(query.ok()) << query.status();
    ASSERT_TRUE(clean_query.ok()) << clean_query.status();
    auto answer = EvaluateFoQuery(*query, db);
    auto clean_answer = EvaluateFoQuery(*clean_query, clean);
    ASSERT_TRUE(answer.ok()) << answer.status();
    ASSERT_TRUE(clean_answer.ok()) << clean_answer.status();
    EXPECT_EQ(answer->relation.ToString(), clean_answer->relation.ToString())
        << source;
  }
}

}  // namespace
}  // namespace lrpdb
