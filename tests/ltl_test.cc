#include "src/ltl/ltl.h"

#include <random>

#include <gtest/gtest.h>

namespace lrpdb {
namespace {

PeriodicWord W(std::vector<int> prefix, std::vector<int> loop) {
  return PeriodicWord(std::move(prefix), std::move(loop));
}

// Brute-force reference: evaluate the formula at `position` by expanding
// the semantics with a lookahead horizon long enough to be exact for the
// word's lasso (prefix + 2 * loop beyond the position suffices for one
// until level; we allow nesting by recursing with the same generous
// horizon).
bool Reference(const LtlFormula& f, const PeriodicWord& w, int64_t i,
               int64_t horizon) {
  switch (f.kind) {
    case LtlFormula::Kind::kProposition:
      return (w.At(i) >> f.proposition) & 1;
    case LtlFormula::Kind::kTrue:
      return true;
    case LtlFormula::Kind::kNot:
      return !Reference(*f.left, w, i, horizon);
    case LtlFormula::Kind::kAnd:
      return Reference(*f.left, w, i, horizon) &&
             Reference(*f.right, w, i, horizon);
    case LtlFormula::Kind::kOr:
      return Reference(*f.left, w, i, horizon) ||
             Reference(*f.right, w, i, horizon);
    case LtlFormula::Kind::kNext:
      return Reference(*f.left, w, i + 1, horizon);
    case LtlFormula::Kind::kEventually:
      for (int64_t k = i; k < i + horizon; ++k) {
        if (Reference(*f.left, w, k, horizon)) return true;
      }
      return false;
    case LtlFormula::Kind::kAlways:
      for (int64_t k = i; k < i + horizon; ++k) {
        if (!Reference(*f.left, w, k, horizon)) return false;
      }
      return true;
    case LtlFormula::Kind::kUntil:
      for (int64_t k = i; k < i + horizon; ++k) {
        if (Reference(*f.right, w, k, horizon)) return true;
        if (!Reference(*f.left, w, k, horizon)) return false;
      }
      return false;
  }
  return false;
}

TEST(LtlTest, BasicOperators) {
  // Word over one proposition: 1 at even positions of the loop.
  PeriodicWord even = W({}, {1, 0});
  EXPECT_TRUE(EvaluateLtl(*Prop(0), even));
  EXPECT_FALSE(EvaluateLtl(*Prop(0), even, 1));
  EXPECT_TRUE(EvaluateLtl(*Next(Prop(0)), even, 1));
  EXPECT_TRUE(EvaluateLtl(*Eventually(Prop(0)), even, 1));
  EXPECT_FALSE(EvaluateLtl(*Always(Prop(0)), even));
  EXPECT_TRUE(EvaluateLtl(*Always(Or(Prop(0), Next(Prop(0)))), even));
}

TEST(LtlTest, UntilSemantics) {
  // p holds until q at position 3; after that p stops.
  //  p p p q . . (loop .)
  PeriodicWord w = W({1, 1, 1, 2, 0}, {0});
  LtlFormulaPtr p_until_q = Until(Prop(0), Prop(1));
  EXPECT_TRUE(EvaluateLtl(*p_until_q, w, 0));
  EXPECT_TRUE(EvaluateLtl(*p_until_q, w, 3));   // q immediately.
  EXPECT_FALSE(EvaluateLtl(*p_until_q, w, 4));  // Neither ever again.
  // F q true before/at 3, false after.
  EXPECT_TRUE(EvaluateLtl(*Eventually(Prop(1)), w, 2));
  EXPECT_FALSE(EvaluateLtl(*Eventually(Prop(1)), w, 4));
}

TEST(LtlTest, InfinitelyOftenOnLoop) {
  PeriodicWord sometimes = W({0, 0, 0}, {0, 0, 1});
  EXPECT_TRUE(EvaluateLtl(*Always(Eventually(Prop(0))), sometimes));
  PeriodicWord finitely = W({1, 1}, {0});
  EXPECT_FALSE(EvaluateLtl(*Always(Eventually(Prop(0))), finitely));
  EXPECT_TRUE(EvaluateLtl(*Eventually(Always(Not(Prop(0)))), finitely));
}

TEST(LtlTest, ParserPrecedenceAndSugar) {
  auto q = ParseLtl("G (p -> F q)");
  ASSERT_TRUE(q.ok()) << q.status();
  // Every p is eventually followed by q: true on alternating word.
  PeriodicWord alternating = W({}, {1, 2});
  EXPECT_TRUE(EvaluateLtl(*q->formula, alternating));
  // False when q never happens after the prefix p.
  PeriodicWord never = W({1}, {0});
  EXPECT_FALSE(EvaluateLtl(*q->formula, never));

  auto until = ParseLtl("p U q | r");
  ASSERT_TRUE(until.ok()) << until.status();
  auto bad = ParseLtl("p U");
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(ParseLtl("(p").ok());
  auto truth = ParseLtl("true & ~false");
  ASSERT_TRUE(truth.ok());
  EXPECT_TRUE(EvaluateLtl(*truth->formula, never));
}

TEST(LtlTest, SatisfactionSetIsEventuallyPeriodic) {
  // X p on word with p at 3 + 4k: satisfaction at 2 + 4k.
  PeriodicWord w = W({}, {0, 0, 0, 1});
  EventuallyPeriodicSet sat = SatisfactionSet(*Next(Prop(0)), w);
  for (int64_t t = 0; t < 40; ++t) {
    EXPECT_EQ(sat.Contains(t), t % 4 == 2) << t;
  }
}

TEST(LtlTest, SatisfactionSetMatchesCharacteristicRoundTrip) {
  // For the characteristic word of S, the satisfaction set of the bare
  // proposition is S itself.
  EventuallyPeriodicSet s = EventuallyPeriodicSet::ArithmeticProgression(5, 7);
  PeriodicWord w = PeriodicWord::Characteristic(s);
  EXPECT_EQ(SatisfactionSet(*Prop(0), w), s);
}

// Randomized differential test against the brute-force reference.
class LtlRandomTest : public ::testing::TestWithParam<int> {};

LtlFormulaPtr RandomFormula(std::mt19937& rng, int depth) {
  int choice = static_cast<int>(rng() % (depth > 0 ? 8 : 2));
  switch (choice) {
    case 0:
      return Prop(static_cast<int>(rng() % 2));
    case 1:
      return True();
    case 2:
      return Not(RandomFormula(rng, depth - 1));
    case 3:
      return And(RandomFormula(rng, depth - 1), RandomFormula(rng, depth - 1));
    case 4:
      return Or(RandomFormula(rng, depth - 1), RandomFormula(rng, depth - 1));
    case 5:
      return Next(RandomFormula(rng, depth - 1));
    case 6:
      return Eventually(RandomFormula(rng, depth - 1));
    default:
      return Until(RandomFormula(rng, depth - 1),
                   RandomFormula(rng, depth - 1));
  }
}

TEST_P(LtlRandomTest, MatchesBruteForceReference) {
  std::mt19937 rng(GetParam() * 13);
  for (int iter = 0; iter < 40; ++iter) {
    int prefix_len = static_cast<int>(rng() % 4);
    int loop_len = 1 + static_cast<int>(rng() % 4);
    std::vector<int> prefix(prefix_len);
    std::vector<int> loop(loop_len);
    for (int& s : prefix) s = static_cast<int>(rng() % 4);
    for (int& s : loop) s = static_cast<int>(rng() % 4);
    PeriodicWord w(prefix, loop);
    LtlFormulaPtr f = RandomFormula(rng, 3);
    // Horizon: prefix + several loops covers every fixpoint level of a
    // depth-3 formula on loops of length <= 4.
    int64_t horizon = 200;
    for (int64_t pos = 0; pos < 10; ++pos) {
      ASSERT_EQ(EvaluateLtl(*f, w, pos), Reference(*f, w, pos, horizon))
          << "iter " << iter << " pos " << pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LtlRandomTest, ::testing::Range(1, 9));

// The star-free boundary, executed: "p at every even position" (the parity
// language) is NOT LTL-expressible, but its superset "infinitely many p"
// and the Buchi automaton view are; we verify LTL and the Buchi automaton
// agree on the expressible side.
TEST(LtlTest, AgreesWithBuchiOnInfinitelyOften) {
  auto query = ParseLtl("G F p");
  ASSERT_TRUE(query.ok());
  // Buchi automaton for infinitely many 1s (bit 0).
  Nfa nfa = Nfa::Empty(2);
  int zero = nfa.AddState(false);
  int one = nfa.AddState(true);
  nfa.AddTransition(zero, 0, zero);
  nfa.AddTransition(zero, 1, one);
  nfa.AddTransition(one, 0, zero);
  nfa.AddTransition(one, 1, one);
  nfa.initial.push_back(zero);
  BuchiAutomaton buchi{Nfa(nfa)};
  std::vector<PeriodicWord> samples = {
      W({}, {1}),       W({}, {0}),        W({1, 1, 1}, {0}),
      W({0, 0}, {0, 1}), W({}, {0, 0, 1}), W({1}, {1, 0}),
  };
  for (const PeriodicWord& w : samples) {
    EXPECT_EQ(EvaluateLtl(*query->formula, w), buchi.Accepts(w));
  }
}

// The exact text of representative parse errors: each names its
// line:column and the token the parser stopped at.
TEST(LtlTest, ErrorMessagesArePinned) {
  struct Case {
    const char* source;
    const char* message;
  };
  const Case cases[] = {
      {"(p", "line 1:3: expected ')'"},
      {"p U", "line 1:4: expected LTL formula"},
      {"p q", "line 1:4: trailing input (at 'q')"},
      {"G (p -> )", "line 1:10: expected LTL formula (at ')')"},
      {"p -\n  q", "line 1:4: trailing input (at '-')"},
  };
  for (const Case& c : cases) {
    auto query = ParseLtl(c.source);
    ASSERT_FALSE(query.ok()) << c.source;
    EXPECT_EQ(query.status().code(), StatusCode::kParseError) << c.source;
    EXPECT_EQ(query.status().message(), c.message) << c.source;
  }
}

// A lexical error anywhere in the formula is reported in preference to a
// parse error that comes before it.
TEST(LtlTest, LexicalErrorAfterParseErrorWins) {
  auto query = ParseLtl("(p & ) | G q @");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().message(), "line 1:14: unexpected character '@'");
}

}  // namespace
}  // namespace lrpdb
