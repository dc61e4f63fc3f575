#include "src/gdb/algebra.h"

#include <chrono>
#include <random>
#include <set>

#include <gtest/gtest.h>

namespace lrpdb {
namespace {

GeneralizedTuple Tuple1(Lrp lrp, Dbm constraint) {
  return GeneralizedTuple({std::move(lrp)}, {}, std::move(constraint));
}

TEST(CoalesceTest, FullResidueClassMerges) {
  // {6n, 6n+2, 6n+4} with the same constraint == {2n}.
  Dbm nonneg(1);
  nonneg.AddLowerBound(1, 0);
  std::vector<GeneralizedTuple> tuples;
  for (int64_t r : {0, 2, 4}) tuples.push_back(Tuple1(Lrp(6, r), nonneg));
  auto coalesced = CoalesceTuples(tuples);
  ASSERT_TRUE(coalesced.ok()) << coalesced.status();
  ASSERT_EQ(coalesced->size(), 1u);
  EXPECT_EQ((*coalesced)[0].lrp(0), Lrp(2, 0));
  for (int64_t t = -20; t <= 20; ++t) {
    EXPECT_EQ((*coalesced)[0].ContainsGround({t}, {}),
              t >= 0 && t % 2 == 0)
        << t;
  }
}

TEST(CoalesceTest, DifferentConstraintsDoNotMerge) {
  Dbm a(1);
  a.AddLowerBound(1, 0);
  Dbm b(1);
  b.AddLowerBound(1, 100);
  std::vector<GeneralizedTuple> tuples{Tuple1(Lrp(4, 0), a),
                                       Tuple1(Lrp(4, 2), b)};
  auto coalesced = CoalesceTuples(tuples);
  ASSERT_TRUE(coalesced.ok());
  EXPECT_EQ(coalesced->size(), 2u);
}

TEST(CoalesceTest, PartialClassDoesNotMerge) {
  // Only 2 of the 3 residues of 6n mod 2 present.
  std::vector<GeneralizedTuple> tuples{
      GeneralizedTuple::Unconstrained({Lrp(6, 0)}, {}),
      GeneralizedTuple::Unconstrained({Lrp(6, 2)}, {})};
  auto coalesced = CoalesceTuples(tuples);
  ASSERT_TRUE(coalesced.ok());
  EXPECT_EQ(coalesced->size(), 2u);
}

TEST(CoalesceTest, ResidueDependentConstraintsStaySplit) {
  // t >= offset differs per class: the union is NOT a single coarse tuple.
  std::vector<GeneralizedTuple> tuples;
  for (int64_t r : {0, 1}) {
    Dbm c(1);
    c.AddLowerBound(1, r * 100);
    tuples.push_back(Tuple1(Lrp(2, r), c));
  }
  auto coalesced = CoalesceTuples(tuples);
  ASSERT_TRUE(coalesced.ok());
  EXPECT_EQ(coalesced->size(), 2u);
}

TEST(CoalesceTest, GroundSetPreservedOnRandomInputs) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> period_dist(1, 3);  // Power of 2 ladder.
  std::uniform_int_distribution<int> offset_dist(0, 7);
  std::uniform_int_distribution<int> bound_dist(-10, 10);
  for (int iter = 0; iter < 30; ++iter) {
    std::vector<GeneralizedTuple> tuples;
    int n = 2 + iter % 5;
    for (int i = 0; i < n; ++i) {
      int64_t period = 1 << period_dist(rng);
      Dbm c(1);
      if (iter % 2 == 0) c.AddLowerBound(1, bound_dist(rng));
      tuples.push_back(Tuple1(Lrp(period, offset_dist(rng)), c));
    }
    auto coalesced = CoalesceTuples(tuples);
    ASSERT_TRUE(coalesced.ok());
    for (int64_t t = -30; t <= 30; ++t) {
      bool before = false;
      for (const GeneralizedTuple& tuple : tuples) {
        before = before || tuple.ContainsGround({t}, {});
      }
      bool after = false;
      for (const GeneralizedTuple& tuple : *coalesced) {
        after = after || tuple.ContainsGround({t}, {});
      }
      ASSERT_EQ(before, after) << "iter " << iter << " t=" << t;
    }
  }
}

TEST(CoalesceTest, MultiColumnCoalescing) {
  // Second column splits into both residues mod 2 with equal constraints.
  Dbm link(2);
  link.AddDifferenceUpperBound(1, 2, 5);
  std::vector<GeneralizedTuple> tuples{
      GeneralizedTuple({Lrp(3, 1), Lrp(2, 0)}, {}, link),
      GeneralizedTuple({Lrp(3, 1), Lrp(2, 1)}, {}, link)};
  auto coalesced = CoalesceTuples(tuples);
  ASSERT_TRUE(coalesced.ok());
  ASSERT_EQ(coalesced->size(), 1u);
  EXPECT_EQ((*coalesced)[0].lrp(1), Lrp(1, 0));
}

TEST(CoalesceTest, HugePeriodPairStaysSplitQuickly) {
  // Two offsets of period 2^40 can fill no coarser class (a class of period
  // 2^40/k needs k members), so no divisor below the period is tried.
  const int64_t p = int64_t{1} << 40;
  std::vector<GeneralizedTuple> tuples{
      GeneralizedTuple::Unconstrained({Lrp(p, 0)}, {}),
      GeneralizedTuple::Unconstrained({Lrp(p, 1)}, {})};
  const auto start = std::chrono::steady_clock::now();
  auto coalesced = CoalesceTuples(tuples);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(coalesced.ok()) << coalesced.status();
  EXPECT_EQ(coalesced->size(), 2u);
  EXPECT_LT(seconds, 0.5);
}

TEST(CoalesceTest, ThreeResiduesOfHugePeriodMerge) {
  // {3*2^38 n + r*2^38 : r = 0, 1, 2} tiles the class 2^38 n.
  const int64_t unit = int64_t{1} << 38;
  Dbm nonneg(1);
  nonneg.AddLowerBound(1, 0);
  std::vector<GeneralizedTuple> tuples;
  for (int64_t r : {0, 1, 2}) {
    tuples.push_back(Tuple1(Lrp(3 * unit, r * unit), nonneg));
  }
  auto coalesced = CoalesceTuples(tuples);
  ASSERT_TRUE(coalesced.ok()) << coalesced.status();
  ASSERT_EQ(coalesced->size(), 1u);
  EXPECT_EQ((*coalesced)[0].lrp(0), Lrp(unit, 0));
}

TEST(CoalesceTest, PlanNamesConsumedInputsAndMergedTuples) {
  // {6n, 6n+2, 6n+4} merge into 2n; 5n+1 and 6n+1 have no partners. The
  // unmerged inputs keep their input order and the merged tuple follows.
  std::vector<GeneralizedTuple> tuples{
      GeneralizedTuple::Unconstrained({Lrp(5, 1)}, {}),
      GeneralizedTuple::Unconstrained({Lrp(6, 0)}, {}),
      GeneralizedTuple::Unconstrained({Lrp(6, 1)}, {}),
      GeneralizedTuple::Unconstrained({Lrp(6, 2)}, {}),
      GeneralizedTuple::Unconstrained({Lrp(6, 4)}, {})};
  auto coalesced = CoalesceTuples(tuples);
  ASSERT_TRUE(coalesced.ok()) << coalesced.status();
  ASSERT_EQ(coalesced->size(), 3u);
  EXPECT_EQ((*coalesced)[0].lrp(0), Lrp(5, 1));
  EXPECT_EQ((*coalesced)[1].lrp(0), Lrp(6, 1));
  EXPECT_EQ((*coalesced)[2].lrp(0), Lrp(2, 0));
}

TEST(CoalesceTest, MergedTuplesMergeAgainAcrossColumns) {
  // Four residue pairs mod 4 merge in column 0, then the two results merge
  // in column 1: every input is consumed and one tuple (2n, 2n) survives.
  Dbm nonneg(2);
  nonneg.AddLowerBound(1, 0);
  nonneg.AddLowerBound(2, 0);
  std::vector<GeneralizedTuple> tuples;
  for (int64_t a : {0, 2}) {
    for (int64_t b : {0, 2}) {
      tuples.push_back(GeneralizedTuple({Lrp(4, a), Lrp(4, b)}, {}, nonneg));
    }
  }
  auto coalesced = CoalesceTuples(tuples);
  ASSERT_TRUE(coalesced.ok()) << coalesced.status();
  ASSERT_EQ(coalesced->size(), 1u);
  EXPECT_EQ((*coalesced)[0].lrp(0), Lrp(2, 0));
  EXPECT_EQ((*coalesced)[0].lrp(1), Lrp(2, 0));
}

// --- Projection fast paths ---

TEST(ProjectTest, PermutationFastPathReordersColumns) {
  GeneralizedRelation r({2, 0});
  Dbm c(2);
  c.AddDifferenceEquality(2, 1, 7);
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp(5, 0), Lrp(5, 2)}, {}, c))
                  .ok());
  auto swapped = Project(r, {1, 0}, {});
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(swapped->ContainsGround({7, 0}, {}));
  EXPECT_TRUE(swapped->ContainsGround({12, 5}, {}));
  EXPECT_FALSE(swapped->ContainsGround({0, 7}, {}));
}

TEST(ProjectTest, DroppingZColumnIsExact) {
  // R(t1, t2) with t2 in Z, t1 in 4n, t2 >= t1: projecting out t2 keeps 4n.
  GeneralizedRelation r({2, 0});
  Dbm c(2);
  c.AddDifferenceUpperBound(1, 2, 0);
  ASSERT_TRUE(
      r.Insert(GeneralizedTuple({Lrp(4, 0), Lrp(1, 0)}, {}, c)).ok());
  auto projected = Project(r, {0}, {});
  ASSERT_TRUE(projected.ok());
  for (int64_t t = -16; t <= 16; ++t) {
    EXPECT_EQ(projected->ContainsGround({t}, {}), FloorMod(t, 4) == 0) << t;
  }
}

TEST(ProjectTest, DroppingIndependentPeriodicColumn) {
  // Dropped column has period 7 but no link to the kept column; it always
  // admits values, so it vanishes without residue splitting.
  GeneralizedRelation r({2, 0});
  Dbm c(2);
  c.AddLowerBound(2, 3);  // Absolute bound only.
  ASSERT_TRUE(
      r.Insert(GeneralizedTuple({Lrp(4, 1), Lrp(7, 0)}, {}, c)).ok());
  auto projected = Project(r, {0}, {});
  ASSERT_TRUE(projected.ok());
  for (int64_t t = -16; t <= 16; ++t) {
    EXPECT_EQ(projected->ContainsGround({t}, {}), FloorMod(t, 4) == 1) << t;
  }
}

TEST(ProjectTest, DroppingIndependentButEmptyColumnKillsTuple) {
  // The dropped column's lrp misses its absolute window entirely.
  GeneralizedRelation r({2, 0});
  Dbm c(2);
  c.AddLowerBound(2, 3);
  c.AddUpperBound(2, 6);
  ASSERT_TRUE(
      r.Insert(GeneralizedTuple({Lrp(4, 1), Lrp(10, 0)}, {}, c)).ok());
  auto projected = Project(r, {0}, {});
  ASSERT_TRUE(projected.ok());
  EXPECT_TRUE(projected->empty());
}

TEST(ProjectTest, LinkedPeriodicColumnUsesResiduePath) {
  // t1 = t2 with t2 in 6n: kept t1 inherits the congruence.
  GeneralizedRelation r({2, 0});
  Dbm c(2);
  c.AddDifferenceEquality(1, 2, 0);
  ASSERT_TRUE(
      r.Insert(GeneralizedTuple({Lrp(1, 0), Lrp(6, 0)}, {}, c)).ok());
  auto projected = Project(r, {0}, {});
  ASSERT_TRUE(projected.ok());
  for (int64_t t = -18; t <= 18; ++t) {
    EXPECT_EQ(projected->ContainsGround({t}, {}), FloorMod(t, 6) == 0) << t;
  }
}

// --- Smaller algebra pieces ---

TEST(AlgebraOpsTest, ShiftColumnTranslates) {
  GeneralizedRelation r({1, 0});
  Dbm c(1);
  c.AddLowerBound(1, 0);
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp(10, 0)}, {}, c)).ok());
  auto shifted = ShiftColumn(r, 0, 3);
  ASSERT_TRUE(shifted.ok());
  for (int64_t t = -20; t <= 40; ++t) {
    EXPECT_EQ(shifted->ContainsGround({t}, {}),
              t >= 3 && FloorMod(t - 3, 10) == 0)
        << t;
  }
}

TEST(AlgebraOpsTest, SelectData) {
  Interner interner;
  DataValue a = interner.Intern("a");
  DataValue b = interner.Intern("b");
  GeneralizedRelation r({0, 2});
  ASSERT_TRUE(
      r.Insert(GeneralizedTuple::Unconstrained({}, {a, a})).ok());
  ASSERT_TRUE(
      r.Insert(GeneralizedTuple::Unconstrained({}, {a, b})).ok());
  ASSERT_TRUE(
      r.Insert(GeneralizedTuple::Unconstrained({}, {b, b})).ok());
  StatusOr<GeneralizedRelation> eq = SelectDataColumnsEqual(r, 0, 1);
  ASSERT_TRUE(eq.ok()) << eq.status();
  EXPECT_EQ(eq->size(), 2u);
  StatusOr<GeneralizedRelation> only_a = SelectDataEquals(r, 0, a);
  ASSERT_TRUE(only_a.ok()) << only_a.status();
  EXPECT_EQ(only_a->size(), 2u);
  StatusOr<GeneralizedRelation> only_ab = SelectDataEquals(*only_a, 1, b);
  ASSERT_TRUE(only_ab.ok()) << only_ab.status();
  EXPECT_EQ(only_ab->size(), 1u);
}

// Regression: the data selections used to crash through LRPDB_CHECK_OK on
// any insertion error and indexed data columns unchecked; errors now come
// back as Status values.
TEST(AlgebraOpsTest, SelectDataPropagatesErrors) {
  Interner interner;
  DataValue a = interner.Intern("a");
  GeneralizedRelation r({0, 1});
  ASSERT_TRUE(r.Insert(GeneralizedTuple::Unconstrained({}, {a})).ok());
  EXPECT_EQ(SelectDataEquals(r, 1, a).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SelectDataEquals(r, -1, a).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SelectDataColumnsEqual(r, 0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AlgebraOpsTest, CartesianProductColumnLayout) {
  Interner interner;
  DataValue x = interner.Intern("x");
  GeneralizedRelation a({1, 1});
  ASSERT_TRUE(a.Insert(GeneralizedTuple::Unconstrained({Lrp(2, 0)}, {x}))
                  .ok());
  GeneralizedRelation b({1, 0});
  ASSERT_TRUE(b.Insert(GeneralizedTuple::Unconstrained({Lrp(3, 1)}, {}))
                  .ok());
  auto product = CartesianProduct(a, b);
  ASSERT_TRUE(product.ok());
  EXPECT_EQ(product->schema().temporal_arity, 2);
  EXPECT_EQ(product->schema().data_arity, 1);
  EXPECT_TRUE(product->ContainsGround({0, 1}, {x}));
  EXPECT_TRUE(product->ContainsGround({2, 4}, {x}));
  EXPECT_FALSE(product->ContainsGround({1, 1}, {x}));
}

TEST(AlgebraOpsTest, DoubleComplementIsIdentity) {
  GeneralizedRelation r({1, 0});
  Dbm c(1);
  c.AddLowerBound(1, -5);
  c.AddUpperBound(1, 50);
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp(6, 2)}, {}, c)).ok());
  auto complement = Complement(r, {{}});
  ASSERT_TRUE(complement.ok());
  auto back = Complement(*complement, {{}});
  ASSERT_TRUE(back.ok());
  auto same = SameGroundSet(r, *back);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(*same);
}

TEST(AlgebraOpsTest, DeMorganOnRandomRelations) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> period_dist(1, 6);
  std::uniform_int_distribution<int> offset_dist(-12, 12);
  auto random_relation = [&]() {
    GeneralizedRelation r({1, 0});
    int n = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < n; ++i) {
      Dbm c(1);
      int lo = offset_dist(rng);
      c.AddLowerBound(1, lo);
      c.AddUpperBound(1, lo + 30);
      LRPDB_CHECK_OK(
          r.Insert(GeneralizedTuple({Lrp(period_dist(rng), offset_dist(rng))},
                                    {}, c))
              .status());
    }
    return r;
  };
  for (int iter = 0; iter < 10; ++iter) {
    GeneralizedRelation a = random_relation();
    GeneralizedRelation b = random_relation();
    // ~(a u b) == ~a ^ ~b.
    auto u = Union(a, b);
    ASSERT_TRUE(u.ok());
    auto lhs = Complement(*u, {{}});
    ASSERT_TRUE(lhs.ok());
    auto na = Complement(a, {{}});
    auto nb = Complement(b, {{}});
    ASSERT_TRUE(na.ok());
    ASSERT_TRUE(nb.ok());
    auto rhs = Intersect(*na, *nb);
    ASSERT_TRUE(rhs.ok());
    for (int64_t t = -60; t <= 60; ++t) {
      ASSERT_EQ(lhs->ContainsGround({t}, {}), rhs->ContainsGround({t}, {}))
          << "iter " << iter << " t=" << t;
    }
  }
}

TEST(AlgebraOpsTest, JoinWithOffset) {
  GeneralizedRelation dep({1, 0});
  ASSERT_TRUE(
      dep.Insert(GeneralizedTuple::Unconstrained({Lrp(8, 0)}, {})).ok());
  GeneralizedRelation arr({1, 0});
  ASSERT_TRUE(
      arr.Insert(GeneralizedTuple::Unconstrained({Lrp(8, 3)}, {})).ok());
  // dep == arr - 3.
  auto joined = JoinOnEqualities(dep, arr,
                                 {{.left_column = 0,
                                   .right_column = 0,
                                   .offset = -3}},
                                 {});
  ASSERT_TRUE(joined.ok());
  EXPECT_TRUE(joined->ContainsGround({0, 3}, {}));
  EXPECT_TRUE(joined->ContainsGround({8, 11}, {}));
  EXPECT_FALSE(joined->ContainsGround({0, 11}, {}));
}

}  // namespace
}  // namespace lrpdb
