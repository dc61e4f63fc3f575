#include "src/gdb/periodic_bridge.h"

#include <random>

#include <gtest/gtest.h>

namespace lrpdb {
namespace {

TEST(BridgeTest, ArithmeticProgressionRoundTrip) {
  EventuallyPeriodicSet set =
      EventuallyPeriodicSet::ArithmeticProgression(5, 40);
  const GeneralizedRelation relation = ToGeneralizedRelation(set);
  for (int64_t t = -10; t < 200; ++t) {
    EXPECT_EQ(relation.ContainsGround({t}, {}), set.Contains(t)) << t;
  }
  auto back = ToEventuallyPeriodicSet(relation);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, set);
}

TEST(BridgeTest, PrefixPlusTailRoundTrip) {
  auto set = EventuallyPeriodicSet::Create(
      {true, false, false, true},  // 0 and 3 in the prefix.
      {false, true, true});        // 5, 6 mod 3 from offset 4.
  ASSERT_TRUE(set.ok());
  const GeneralizedRelation relation = ToGeneralizedRelation(*set);
  for (int64_t t = 0; t < 100; ++t) {
    EXPECT_EQ(relation.ContainsGround({t}, {}), set->Contains(t)) << t;
  }
  auto back = ToEventuallyPeriodicSet(relation);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, *set);
}

TEST(BridgeTest, EmptyAndFullSets) {
  EventuallyPeriodicSet empty;
  const GeneralizedRelation empty_rel = ToGeneralizedRelation(empty);
  EXPECT_TRUE(empty_rel.empty());
  auto empty_back = ToEventuallyPeriodicSet(empty_rel);
  ASSERT_TRUE(empty_back.ok());
  EXPECT_TRUE(empty_back->IsEmpty());

  EventuallyPeriodicSet full =
      EventuallyPeriodicSet::ArithmeticProgression(0, 1);
  const GeneralizedRelation full_rel = ToGeneralizedRelation(full);
  auto full_back = ToEventuallyPeriodicSet(full_rel);
  ASSERT_TRUE(full_back.ok());
  EXPECT_EQ(*full_back, full);
}

TEST(BridgeTest, RelationBuiltByHandConverts) {
  // Mixed representation: two lrps plus a pinned point, restricted to N by
  // hand.
  GeneralizedRelation r({1, 0});
  Dbm nonneg(1);
  nonneg.AddLowerBound(1, 0);
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp(6, 1)}, {}, nonneg)).ok());
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp(4, 2)}, {}, nonneg)).ok());
  Dbm pin(1);
  pin.AddEquality(1, 3);
  ASSERT_TRUE(r.Insert(GeneralizedTuple({Lrp()}, {}, pin)).ok());

  auto set = ToEventuallyPeriodicSet(r);
  ASSERT_TRUE(set.ok()) << set.status();
  for (int64_t t = 0; t < 120; ++t) {
    EXPECT_EQ(set->Contains(t), r.ContainsGround({t}, {})) << t;
  }
}

TEST(BridgeTest, RejectsWrongSchema) {
  GeneralizedRelation two_cols({2, 0});
  EXPECT_FALSE(ToEventuallyPeriodicSet(two_cols).ok());
  GeneralizedRelation with_data({1, 1});
  EXPECT_FALSE(ToEventuallyPeriodicSet(with_data).ok());
}

class BridgeRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BridgeRandomTest, RandomSetsRoundTrip) {
  std::mt19937 rng(GetParam() * 17);
  for (int iter = 0; iter < 20; ++iter) {
    int64_t offset = rng() % 8;
    int64_t period = 1 + rng() % 12;
    std::vector<bool> prefix(offset);
    for (int64_t i = 0; i < offset; ++i) prefix[i] = rng() % 2;
    std::vector<bool> tail(period);
    for (int64_t i = 0; i < period; ++i) tail[i] = rng() % 2;
    auto set = EventuallyPeriodicSet::Create(prefix, tail);
    ASSERT_TRUE(set.ok());
    const GeneralizedRelation relation = ToGeneralizedRelation(*set);
    auto back = ToEventuallyPeriodicSet(relation);
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_EQ(*back, *set) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BridgeRandomTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace lrpdb
