#include "src/lrp/lrp.h"

#include <set>

#include <gtest/gtest.h>

#include "src/lrp/periodic_set.h"

namespace lrpdb {
namespace {

TEST(LrpTest, CanonicalizesOffsetAndSign) {
  EXPECT_EQ(Lrp(5, 3), Lrp(5, 8));
  EXPECT_EQ(Lrp(5, 3), Lrp(5, -2));
  EXPECT_EQ(Lrp(-5, 3), Lrp(5, 3));
  EXPECT_EQ(Lrp(1, 12345), Lrp(1, 0));
}

TEST(LrpTest, CreateRejectsZeroPeriod) {
  StatusOr<Lrp> result = Lrp::Create(0, 7);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(LrpTest, ContainsMatchesPaperExample) {
  // 5m+3 denotes {..., -7, -2, 3, 8, 13, ...} (paper, Section 2.1).
  Lrp lrp(5, 3);
  for (int64_t t : {-7, -2, 3, 8, 13}) EXPECT_TRUE(lrp.Contains(t)) << t;
  for (int64_t t : {-8, -1, 0, 4, 12}) EXPECT_FALSE(lrp.Contains(t)) << t;
}

TEST(LrpTest, ShiftTranslatesMembers) {
  Lrp lrp(40, 5);
  Lrp shifted = lrp.Shifted(60);
  for (int64_t t = -200; t < 200; ++t) {
    EXPECT_EQ(shifted.Contains(t), lrp.Contains(t - 60)) << t;
  }
}

TEST(LrpTest, SubsetOf) {
  EXPECT_TRUE(Lrp(10, 3).SubsetOf(Lrp(5, 3)));
  EXPECT_TRUE(Lrp(10, 8).SubsetOf(Lrp(5, 3)));
  EXPECT_FALSE(Lrp(10, 4).SubsetOf(Lrp(5, 3)));
  EXPECT_FALSE(Lrp(5, 3).SubsetOf(Lrp(10, 3)));
  EXPECT_TRUE(Lrp(7, 2).SubsetOf(Lrp(7, 2)));
  EXPECT_TRUE(Lrp(7, 2).SubsetOf(Lrp(1, 0)));
}

TEST(LrpTest, NextAtLeast) {
  Lrp lrp(7, 3);
  EXPECT_EQ(lrp.NextAtLeast(0), 3);
  EXPECT_EQ(lrp.NextAtLeast(3), 3);
  EXPECT_EQ(lrp.NextAtLeast(4), 10);
  EXPECT_EQ(lrp.NextAtLeast(-10), -4);
}

TEST(LrpTest, ToString) {
  EXPECT_EQ(Lrp(5, 3).ToString(), "5n+3");
  EXPECT_EQ(Lrp(1, 0).ToString(), "n");
  EXPECT_EQ(Lrp(7, 0).ToString(), "7n");
}

// Property: intersection computed by CRT equals brute-force intersection on
// a window, for all period/offset combinations in a small grid.
class LrpIntersectTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LrpIntersectTest, MatchesBruteForce) {
  auto [pa, pb] = GetParam();
  for (int oa = 0; oa < pa; ++oa) {
    for (int ob = 0; ob < pb; ++ob) {
      Lrp a(pa, oa);
      Lrp b(pb, ob);
      std::optional<Lrp> merged = Lrp::Intersect(a, b);
      for (int64_t t = -100; t < 100; ++t) {
        bool expected = a.Contains(t) && b.Contains(t);
        bool actual = merged.has_value() && merged->Contains(t);
        ASSERT_EQ(actual, expected)
            << a.ToString() << " ^ " << b.ToString() << " at t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LrpIntersectTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 6, 7, 12),
                       ::testing::Values(1, 2, 3, 5, 8, 9, 12)));

TEST(LrpIntersectTest, LargePeriods) {
  // Trains every 40 min from +5 and every 60 min from +25 coincide every
  // 120 min.
  Lrp a(40, 5);
  Lrp b(60, 25);
  std::optional<Lrp> merged = Lrp::Intersect(a, b);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->period(), 120);
  EXPECT_TRUE(merged->Contains(85));
  // Disjoint case: same gcd residue mismatch.
  EXPECT_FALSE(Lrp::Intersect(Lrp(40, 5), Lrp(60, 26)).has_value());
}

// --- EventuallyPeriodicSet ---

TEST(PeriodicSetTest, EmptyAndFinite) {
  EventuallyPeriodicSet empty;
  EXPECT_TRUE(empty.IsEmpty());
  EXPECT_FALSE(empty.Contains(0));

  EventuallyPeriodicSet finite =
      EventuallyPeriodicSet::FiniteSet({1, 4, 4, 9});
  EXPECT_FALSE(finite.IsEmpty());
  EXPECT_TRUE(finite.Contains(1));
  EXPECT_TRUE(finite.Contains(4));
  EXPECT_TRUE(finite.Contains(9));
  EXPECT_FALSE(finite.Contains(2));
  EXPECT_FALSE(finite.Contains(10000));
}

TEST(PeriodicSetTest, ArithmeticProgression) {
  EventuallyPeriodicSet ap = EventuallyPeriodicSet::ArithmeticProgression(5, 40);
  EXPECT_TRUE(ap.Contains(5));
  EXPECT_TRUE(ap.Contains(45));
  EXPECT_TRUE(ap.Contains(5 + 40 * 1000));
  EXPECT_FALSE(ap.Contains(0));
  EXPECT_FALSE(ap.Contains(44));
}

TEST(PeriodicSetTest, CanonicalizationMakesEqualitySemantic) {
  // {0, 2, 4, ...} built two different ways.
  auto a = EventuallyPeriodicSet::Create({true, false}, {true, false});
  auto b = EventuallyPeriodicSet::Create({}, {true, false, true, false});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a->period(), 2);
  EXPECT_EQ(a->offset(), 0);
}

TEST(PeriodicSetTest, CreateRejectsEmptyTail) {
  EXPECT_FALSE(EventuallyPeriodicSet::Create({true}, {}).ok());
}

TEST(PeriodicSetTest, UnionIntersectComplementShift) {
  EventuallyPeriodicSet evens = EventuallyPeriodicSet::ArithmeticProgression(0, 2);
  EventuallyPeriodicSet threes = EventuallyPeriodicSet::ArithmeticProgression(0, 3);
  EventuallyPeriodicSet u = EventuallyPeriodicSet::Union(evens, threes);
  EventuallyPeriodicSet i = EventuallyPeriodicSet::Intersect(evens, threes);
  EventuallyPeriodicSet c = evens.Complement();
  EventuallyPeriodicSet s = evens.Shifted(1);
  for (int64_t t = 0; t < 200; ++t) {
    EXPECT_EQ(u.Contains(t), t % 2 == 0 || t % 3 == 0) << t;
    EXPECT_EQ(i.Contains(t), t % 6 == 0) << t;
    EXPECT_EQ(c.Contains(t), t % 2 == 1) << t;
    EXPECT_EQ(s.Contains(t), t % 2 == 1) << t;
  }
  EXPECT_EQ(i, EventuallyPeriodicSet::ArithmeticProgression(0, 6));
}

TEST(PeriodicSetTest, ShiftLeftDropsBelowZero) {
  EventuallyPeriodicSet ap = EventuallyPeriodicSet::ArithmeticProgression(1, 5);
  EventuallyPeriodicSet left = ap.Shifted(-2);
  // {1, 6, 11, ...} - 2 = {-1, 4, 9, ...} -> {4, 9, ...} over naturals.
  EXPECT_FALSE(left.Contains(0));
  EXPECT_TRUE(left.Contains(4));
  EXPECT_TRUE(left.Contains(9));
  EXPECT_EQ(left, EventuallyPeriodicSet::ArithmeticProgression(4, 5));
}

TEST(PeriodicSetTest, EnumerateWindow) {
  EventuallyPeriodicSet ap = EventuallyPeriodicSet::ArithmeticProgression(3, 4);
  EXPECT_EQ(ap.Enumerate(0, 16), (std::vector<int64_t>{3, 7, 11, 15}));
  EXPECT_EQ(ap.Enumerate(-5, 4), (std::vector<int64_t>{3}));
}

// Property: round-trip of random prefix/tail pairs through canonicalization
// preserves membership everywhere.
class PeriodicSetCanonTest : public ::testing::TestWithParam<int> {};

TEST_P(PeriodicSetCanonTest, CanonicalizationPreservesMembership) {
  unsigned seed = static_cast<unsigned>(GetParam());
  auto next = [&seed]() {
    seed = seed * 1103515245u + 12345u;
    return (seed >> 16) & 1u;
  };
  for (int iter = 0; iter < 50; ++iter) {
    int prefix_len = static_cast<int>(next()) * 3 + static_cast<int>(next());
    int tail_len = 1 + static_cast<int>(next()) * 2 + static_cast<int>(next());
    std::vector<bool> prefix(prefix_len);
    std::vector<bool> tail(tail_len);
    for (int i = 0; i < prefix_len; ++i) prefix[i] = next();
    for (int i = 0; i < tail_len; ++i) tail[i] = next();
    auto set = EventuallyPeriodicSet::Create(prefix, tail);
    ASSERT_TRUE(set.ok());
    for (int64_t t = 0; t < 64; ++t) {
      bool expected =
          t < prefix_len
              ? prefix[t]
              : tail[static_cast<size_t>((t - prefix_len) % tail_len)];
      ASSERT_EQ(set->Contains(t), expected)
          << "t=" << t << " prefix_len=" << prefix_len
          << " tail_len=" << tail_len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PeriodicSetCanonTest,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace lrpdb
