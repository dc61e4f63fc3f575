#include "src/constraints/dbm.h"

#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace lrpdb {
namespace {

// Enumerates all integer points of `dbm` with coordinates in [lo, hi).
std::vector<std::vector<int64_t>> EnumeratePoints(const Dbm& dbm, int64_t lo,
                                                  int64_t hi) {
  std::vector<std::vector<int64_t>> points;
  int m = dbm.num_vars();
  std::vector<int64_t> v(m, lo);
  while (true) {
    if (dbm.ContainsPoint(v)) points.push_back(v);
    int pos = m - 1;
    while (pos >= 0) {
      if (++v[pos] < hi) break;
      v[pos] = lo;
      --pos;
    }
    if (pos < 0 || m == 0) break;
  }
  return points;
}

TEST(BoundTest, Ordering) {
  EXPECT_TRUE(Bound::Finite(1) < Bound::Finite(2));
  EXPECT_TRUE(Bound::Finite(100) < Bound::Infinity());
  EXPECT_FALSE(Bound::Infinity() < Bound::Infinity());
  EXPECT_EQ((Bound::Finite(3) + Bound::Finite(-5)).value(), -2);
  EXPECT_TRUE((Bound::Infinity() + Bound::Finite(1)).is_infinite());
}

TEST(DbmTest, UnconstrainedIsSatisfiable) {
  Dbm dbm(3);
  EXPECT_TRUE(dbm.IsSatisfiable());
  EXPECT_TRUE(dbm.ContainsPoint({-100, 0, 100}));
}

TEST(DbmTest, SimpleInfeasibility) {
  Dbm dbm(2);
  dbm.AddDifferenceUpperBound(1, 2, -1);  // x1 < x2
  dbm.AddDifferenceUpperBound(2, 1, -1);  // x2 < x1
  EXPECT_FALSE(dbm.IsSatisfiable());
}

// Closure finds a negative cycle through three variables, not through T0;
// the same cycle with total weight 0 stays satisfiable.
TEST(DbmTest, NegativeCycleThroughThreeVariables) {
  Dbm dbm(3);
  dbm.AddDifferenceUpperBound(1, 2, -1);  // x1 < x2
  dbm.AddDifferenceUpperBound(2, 3, -1);  // x2 < x3
  Dbm zero_cycle = dbm;
  zero_cycle.AddDifferenceUpperBound(3, 1, 2);  // x3 <= x1 + 2
  EXPECT_TRUE(zero_cycle.IsSatisfiable());
  EXPECT_TRUE(zero_cycle.ContainsPoint({0, 1, 2}));
  dbm.AddDifferenceUpperBound(3, 1, 1);  // x3 <= x1 + 1
  EXPECT_FALSE(dbm.IsSatisfiable());
  EXPECT_TRUE(EnumeratePoints(dbm, -4, 5).empty());
}

// A negative cycle through the zero variable: x2 <= 4, x1 >= 3 and
// x2 >= x1 + 2 sum to 0 <= -1.
TEST(DbmTest, NegativeCycleThroughZeroVariable) {
  Dbm dbm(2);
  dbm.AddUpperBound(2, 4);
  dbm.AddDifferenceUpperBound(1, 2, -2);
  Dbm feasible = dbm;
  feasible.AddLowerBound(1, 2);
  EXPECT_TRUE(feasible.IsSatisfiable());
  EXPECT_EQ(EnumeratePoints(feasible, -10, 10),
            (std::vector<std::vector<int64_t>>{{2, 4}}));
  dbm.AddLowerBound(1, 3);
  EXPECT_FALSE(dbm.IsSatisfiable());
  EXPECT_TRUE(EnumeratePoints(dbm, -10, 10).empty());
}

// With no stored diagonal the kept submatrix of an unsatisfiable DBM may be
// satisfiable on its own; the projection is still empty, and stays empty
// when constraints are added to it.
TEST(DbmTest, ProjectionOfUnsatisfiableDbmContainsNoPoint) {
  Dbm dbm(3);
  dbm.AddDifferenceUpperBound(1, 2, -1);  // x1 < x2
  dbm.AddDifferenceUpperBound(2, 1, -1);  // x2 < x1
  ASSERT_FALSE(dbm.IsSatisfiable());
  for (const std::vector<int>& keep :
       {std::vector<int>{3}, std::vector<int>{1}, std::vector<int>{3, 1}}) {
    Dbm projected = dbm.Project(keep);
    EXPECT_FALSE(projected.IsSatisfiable());
    EXPECT_TRUE(EnumeratePoints(projected, -4, 5).empty());
    projected.AddUpperBound(1, 3);
    EXPECT_FALSE(projected.IsSatisfiable());
    EXPECT_TRUE(EnumeratePoints(projected, -4, 5).empty());
  }
  EXPECT_FALSE(dbm.Project({}).IsSatisfiable());
}

TEST(DbmTest, ZeroVariableDbmStoresNoBoundsAndIsSatisfiable) {
  EXPECT_EQ(DbmView::BoundCount(0), 0u);
  Dbm dbm(0);
  EXPECT_TRUE(dbm.IsSatisfiable());
  EXPECT_TRUE(dbm.ContainsPoint({}));
  EXPECT_EQ(dbm.bound(0, 0), Bound::Finite(0));
  EXPECT_TRUE(dbm.Implies(Dbm(0)));
  EXPECT_EQ(dbm, Dbm(dbm.view()));
  Dbm assigned(2);
  assigned.Assign(dbm.view());
  EXPECT_EQ(assigned.num_vars(), 0);
  EXPECT_TRUE(assigned.IsSatisfiable());
  Dbm one(1);
  one.AddLowerBound(1, 3);
  EXPECT_TRUE(one.Project({}).IsSatisfiable());
}

// Only the m(m+1) off-diagonal bounds are stored, row-major with the
// diagonal skipped; the diagonal reads 0 whatever the DBM holds.
TEST(DbmTest, DiagonalReadsZeroAndIsNotStored) {
  EXPECT_EQ(DbmView::BoundCount(1), 2u);
  EXPECT_EQ(DbmView::BoundCount(2), 6u);
  Dbm dbm(2);
  dbm.AddDifferenceUpperBound(0, 1, 10);
  dbm.AddDifferenceUpperBound(0, 2, 20);
  dbm.AddDifferenceUpperBound(1, 0, 30);
  dbm.AddDifferenceUpperBound(1, 2, 40);
  dbm.AddDifferenceUpperBound(2, 0, 50);
  dbm.AddDifferenceUpperBound(2, 1, 60);
  const Bound* stored = dbm.view().bounds();
  for (int e = 0; e < 6; ++e) {
    EXPECT_EQ(stored[e], Bound::Finite(10 * (e + 1))) << e;
  }
  for (int i = 0; i <= 2; ++i) {
    for (int j = 0; j <= 2; ++j) {
      if (i == j) continue;
      EXPECT_EQ(stored[DbmView::Index(2, i, j)], dbm.bound(i, j));
    }
  }
  dbm.Close();
  for (int i = 0; i <= 2; ++i) {
    EXPECT_EQ(dbm.bound(i, i), Bound::Finite(0));
    EXPECT_EQ(dbm.view().bound(i, i), Bound::Finite(0));
  }
  // Closure tightened x1 - x0 <= 30 through nothing shorter; x2 - x1 <=
  // min(60, 50 + 10) = 60 and x1 - x2 <= min(40, 30 + 20) = 40.
  EXPECT_EQ(dbm.bound(2, 1), Bound::Finite(60));
  EXPECT_EQ(dbm.bound(1, 2), Bound::Finite(40));
}

TEST(DbmTest, AbsoluteBounds) {
  Dbm dbm(1);
  dbm.AddLowerBound(1, 5);
  dbm.AddUpperBound(1, 7);
  EXPECT_TRUE(dbm.IsSatisfiable());
  EXPECT_FALSE(dbm.ContainsPoint({4}));
  EXPECT_TRUE(dbm.ContainsPoint({5}));
  EXPECT_TRUE(dbm.ContainsPoint({7}));
  EXPECT_FALSE(dbm.ContainsPoint({8}));
  dbm.AddUpperBound(1, 4);
  EXPECT_FALSE(dbm.IsSatisfiable());
}

TEST(DbmTest, EqualityChainPropagates) {
  // T2 = T1 + 60, T3 = T2 + 60 implies T3 = T1 + 120.
  Dbm dbm(3);
  dbm.AddDifferenceEquality(2, 1, 60);
  dbm.AddDifferenceEquality(3, 2, 60);
  dbm.Close();
  EXPECT_EQ(dbm.bound(3, 1).value(), 120);
  EXPECT_EQ(dbm.bound(1, 3).value(), -120);
}

TEST(DbmTest, ImpliesAndEquivalence) {
  Dbm tight(2);
  tight.AddDifferenceEquality(2, 1, 2);
  Dbm loose(2);
  loose.AddDifferenceUpperBound(1, 2, 0);  // x1 <= x2
  EXPECT_TRUE(tight.Implies(loose));
  EXPECT_FALSE(loose.Implies(tight));
  EXPECT_TRUE(tight.EquivalentTo(tight));
  EXPECT_FALSE(tight.EquivalentTo(loose));

  Dbm unsat(2);
  unsat.AddDifferenceUpperBound(1, 2, -1);
  unsat.AddDifferenceUpperBound(2, 1, -1);
  EXPECT_TRUE(unsat.Implies(tight));  // Vacuously.
  Dbm unsat2(2);
  unsat2.AddUpperBound(1, 0);
  unsat2.AddLowerBound(1, 1);
  EXPECT_TRUE(unsat.EquivalentTo(unsat2));
}

TEST(DbmTest, ShiftVariableTranslatesSolutions) {
  Dbm dbm(2);
  dbm.AddDifferenceEquality(2, 1, 60);
  dbm.AddLowerBound(1, 0);
  Dbm shifted = dbm;
  shifted.ShiftVariable(1, 10);
  // x1' = x1 + 10: solutions (a, a+60) with a >= 0 become (a+10, a+60).
  EXPECT_TRUE(shifted.ContainsPoint({10, 60}));
  EXPECT_TRUE(shifted.ContainsPoint({15, 65}));
  EXPECT_FALSE(shifted.ContainsPoint({9, 59}));
  EXPECT_FALSE(shifted.ContainsPoint({10, 61}));
}

TEST(DbmTest, ProjectionIsExact) {
  // x1 <= x2 <= x3, x3 <= x1 + 1; projecting out x2 leaves x1 <= x3 <= x1+1.
  Dbm dbm(3);
  dbm.AddDifferenceUpperBound(1, 2, 0);
  dbm.AddDifferenceUpperBound(2, 3, 0);
  dbm.AddDifferenceUpperBound(3, 1, 1);
  Dbm projected = dbm.Project({1, 3});
  EXPECT_EQ(projected.num_vars(), 2);
  EXPECT_TRUE(projected.ContainsPoint({5, 5}));
  EXPECT_TRUE(projected.ContainsPoint({5, 6}));
  EXPECT_FALSE(projected.ContainsPoint({5, 7}));
  EXPECT_FALSE(projected.ContainsPoint({5, 4}));
}

TEST(DbmTest, SubtractProducesDisjointCover) {
  Dbm box(2);  // 0 <= x1 <= 10, 0 <= x2 <= 10.
  box.AddLowerBound(1, 0);
  box.AddUpperBound(1, 10);
  box.AddLowerBound(2, 0);
  box.AddUpperBound(2, 10);
  Dbm inner(2);  // 3 <= x1 <= 6, x2 = x1.
  inner.AddLowerBound(1, 3);
  inner.AddUpperBound(1, 6);
  inner.AddDifferenceEquality(2, 1, 0);

  std::vector<Dbm> pieces = box.Subtract(inner);
  for (int64_t x1 = -1; x1 <= 11; ++x1) {
    for (int64_t x2 = -1; x2 <= 11; ++x2) {
      std::vector<int64_t> p{x1, x2};
      bool in_diff = box.ContainsPoint(p) && !inner.ContainsPoint(p);
      int count = 0;
      for (const Dbm& piece : pieces) {
        if (piece.ContainsPoint(p)) ++count;
      }
      ASSERT_EQ(count, in_diff ? 1 : 0)
          << "point (" << x1 << "," << x2 << ") covered " << count
          << " times";
    }
  }
}

TEST(DbmTest, ImpliedByUnionExactness) {
  Dbm whole(1);  // 0 <= x <= 10.
  whole.AddLowerBound(1, 0);
  whole.AddUpperBound(1, 10);
  Dbm left(1);  // 0 <= x <= 5.
  left.AddLowerBound(1, 0);
  left.AddUpperBound(1, 5);
  Dbm right(1);  // 6 <= x <= 10.
  right.AddLowerBound(1, 6);
  right.AddUpperBound(1, 10);
  Dbm right_gap(1);  // 7 <= x <= 10 (leaves 6 uncovered).
  right_gap.AddLowerBound(1, 7);
  right_gap.AddUpperBound(1, 10);

  EXPECT_TRUE(whole.ImpliedByUnion({left, right}));
  EXPECT_FALSE(whole.ImpliedByUnion({left, right_gap}));
  EXPECT_FALSE(whole.ImpliedByUnion({}));
  EXPECT_TRUE(whole.ImpliedByUnion({whole}));
  // Integer adjacency: x<=5 and x>=6 tile Z with no real-valued overlap.
  Dbm le5(1);
  le5.AddUpperBound(1, 5);
  Dbm ge6(1);
  ge6.AddLowerBound(1, 6);
  Dbm all(1);
  EXPECT_TRUE(all.ImpliedByUnion({le5, ge6}));
}

// Property: random DBM pairs -- Implies() agrees with brute-force subset
// check over a window, and Subtract() covers exactly the difference.
class DbmRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(DbmRandomTest, ImpliesAndSubtractMatchBruteForce) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> bound_dist(-6, 6);
  std::uniform_int_distribution<int> var_dist(0, 2);
  std::uniform_int_distribution<int> count_dist(1, 4);
  for (int iter = 0; iter < 40; ++iter) {
    auto random_dbm = [&]() {
      Dbm dbm(2);
      // Keep things bounded so brute force windows suffice.
      dbm.AddLowerBound(1, -6);
      dbm.AddUpperBound(1, 6);
      dbm.AddLowerBound(2, -6);
      dbm.AddUpperBound(2, 6);
      int n = count_dist(rng);
      for (int k = 0; k < n; ++k) {
        int i = var_dist(rng);
        int j = var_dist(rng);
        if (i == j) continue;
        dbm.AddDifferenceUpperBound(i, j, bound_dist(rng));
      }
      return dbm;
    };
    Dbm a = random_dbm();
    Dbm b = random_dbm();
    auto pa = EnumeratePoints(a, -7, 8);
    auto pb = EnumeratePoints(b, -7, 8);
    bool brute_subset = true;
    for (const auto& p : pa) {
      if (!b.ContainsPoint(p)) {
        brute_subset = false;
        break;
      }
    }
    ASSERT_EQ(a.Implies(b), brute_subset) << "iter " << iter;

    std::vector<Dbm> diff = a.Subtract(b);
    for (int64_t x = -7; x < 8; ++x) {
      for (int64_t y = -7; y < 8; ++y) {
        std::vector<int64_t> p{x, y};
        bool expected = a.ContainsPoint(p) && !b.ContainsPoint(p);
        int count = 0;
        for (const Dbm& piece : diff) {
          if (piece.ContainsPoint(p)) ++count;
        }
        ASSERT_EQ(count, expected ? 1 : 0) << "iter " << iter << " point ("
                                           << x << "," << y << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbmRandomTest, ::testing::Range(1, 9));

TEST(DbmTest, ToStringShowsEqualities) {
  Dbm dbm(2);
  dbm.AddDifferenceEquality(2, 1, 60);
  std::string s = dbm.ToString();
  EXPECT_NE(s.find("T1 = T2-60"), std::string::npos) << s;
}

}  // namespace
}  // namespace lrpdb
