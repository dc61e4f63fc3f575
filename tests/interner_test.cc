// Interner behavior plus an allocation regression test: lookups of
// already-interned names must not allocate, which a probe that copied the
// name into a std::string would for any name beyond the SSO threshold. The
// counting global operator new (tests/counting_new.h) sees every
// allocation in the process, so the test pins the guarantee directly
// rather than through timing.

#include "src/common/interner.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/counting_new.h"

namespace lrpdb {
namespace {

TEST(InternerTest, InternAssignsDenseIdsAndRoundTrips) {
  Interner interner;
  SymbolId a = interner.Intern("alpha");
  SymbolId b = interner.Intern("beta");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.Find("beta"), b);
  EXPECT_EQ(interner.Find("gamma"), -1);
  EXPECT_EQ(interner.NameOf(a), "alpha");
  EXPECT_EQ(interner.NameOf(b), "beta");
  EXPECT_EQ(interner.size(), 2u);
}

// Ids stay dense and stable while the slot table grows, and a copy is an
// independent interner with the same ids.
TEST(InternerTest, IdsSurviveTableGrowthAndCopies) {
  Interner interner;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(interner.Intern("name" + std::to_string(i)), i);
  }
  Interner copy = interner;
  EXPECT_EQ(copy.Intern("extra"), 5000);
  EXPECT_EQ(interner.Find("extra"), -1);
  for (int i = 0; i < 5000; ++i) {
    const std::string name = "name" + std::to_string(i);
    ASSERT_EQ(interner.Find(name), i);
    ASSERT_EQ(copy.Find(name), i);
    ASSERT_EQ(interner.NameOf(i), name);
  }
  EXPECT_EQ(interner.Find(""), -1);
  EXPECT_EQ(interner.Intern(""), 5000);
  EXPECT_EQ(interner.Find(""), 5000);
  EXPECT_EQ(interner.size(), 5001u);
  EXPECT_EQ(Interner().Find("name0"), -1);
}

TEST(InternerTest, LookupsOfInternedNamesDoNotAllocate) {
  Interner interner;
  // Names long enough to defeat the small-string optimization: a per-probe
  // std::string copy of these is guaranteed to hit the heap, which is
  // exactly what this test must rule out.
  std::vector<std::string> names;
  for (int i = 0; i < 64; ++i) {
    names.push_back("predicate_with_a_deliberately_long_name_" +
                    std::to_string(i));
  }
  for (const std::string& name : names) interner.Intern(name);

  const int64_t before = lrpdb_testing::AllocationCount();
  int64_t hits = 0;
  for (int repeat = 0; repeat < 100; ++repeat) {
    for (const std::string& name : names) {
      hits += interner.Find(name) >= 0 ? 1 : 0;
      hits += interner.Intern(name) >= 0 ? 1 : 0;
    }
  }
  const int64_t after = lrpdb_testing::AllocationCount();
  EXPECT_EQ(hits, 2 * 100 * 64);
  EXPECT_EQ(after - before, 0)
      << "re-interning or finding an existing name allocated";
}

TEST(InternerTest, OnlyNewNamesAllocate) {
  Interner interner;
  interner.Intern("already_interned_name_that_is_quite_long_indeed");
  const int64_t before = lrpdb_testing::AllocationCount();
  interner.Intern("fresh_name_that_must_be_copied_into_the_interner");
  const int64_t after = lrpdb_testing::AllocationCount();
  EXPECT_GT(after - before, 0) << "interning a new name must copy it";
}

}  // namespace
}  // namespace lrpdb
