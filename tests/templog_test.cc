#include "src/templog/templog.h"

#include <gtest/gtest.h>

#include "src/datalog1s/datalog1s.h"
#include "src/parser/parser.h"

namespace lrpdb {
namespace {

// Example 2.3: the Templog translation of the train program.
constexpr char kExample23[] = R"(
  next^5 train_leaves(liege, brussels).
  always next^40 train_leaves(X, Y) :- train_leaves(X, Y).
  always next^60 train_arrives(X, Y) :- train_leaves(X, Y).
)";

TEST(TemplogParserTest, ParsesExample23) {
  auto program = ParseTemplog(kExample23);
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_EQ(program->clauses.size(), 3u);
  EXPECT_FALSE(program->clauses[0].always);
  EXPECT_EQ(program->clauses[0].head.next_count, 5);
  EXPECT_EQ(program->clauses[0].head.predicate, "train_leaves");
  EXPECT_EQ(program->clauses[0].head.args,
            (std::vector<std::string>{"liege", "brussels"}));
  EXPECT_TRUE(program->clauses[1].always);
  EXPECT_EQ(program->clauses[1].head.next_count, 40);
  EXPECT_EQ(program->clauses[1].body.size(), 1u);
  EXPECT_FALSE(program->clauses[1].body[0].eventually);
}

TEST(TemplogParserTest, OperatorsAndErrors) {
  auto multi_next = ParseTemplog("next next^2 next p.");
  ASSERT_TRUE(multi_next.ok()) << multi_next.status();
  EXPECT_EQ(multi_next->clauses[0].head.next_count, 4);

  auto box = ParseTemplog("always box alarm(X) :- eventually failure(X).");
  ASSERT_TRUE(box.ok()) << box.status();
  EXPECT_TRUE(box->clauses[0].always);
  EXPECT_TRUE(box->clauses[0].box_head);
  EXPECT_TRUE(box->clauses[0].body[0].eventually);

  EXPECT_FALSE(ParseTemplog("next^ p.").ok());
  EXPECT_FALSE(ParseTemplog("p( .").ok());
  EXPECT_FALSE(ParseTemplog("p").ok());  // Missing period.
}

// The paper's central equivalence: Example 2.3 (Templog) and Example 2.2
// (Datalog1S) define the same model.
TEST(TemplogTranslationTest, Example23MatchesExample22) {
  auto templog = ParseTemplog(kExample23);
  ASSERT_TRUE(templog.ok()) << templog.status();
  Database db;
  auto translated = TranslateToDatalog1S(*templog, &db);
  ASSERT_TRUE(translated.ok()) << translated.status();
  ASSERT_TRUE(ValidateDatalog1S(*translated).ok());
  auto result = EvaluateDatalog1S(*translated, db);
  ASSERT_TRUE(result.ok()) << result.status();

  // Reference: the hand-written Datalog1S program of Example 2.2.
  Database db2;
  auto reference = Parse(R"(
    .decl train_leaves(time, data, data)
    .decl train_arrives(time, data, data)
    train_leaves(5, "liege", "brussels").
    train_leaves(t + 40, "liege", "brussels") :- train_leaves(t, "liege", "brussels").
    train_arrives(t + 60, F, T) :- train_leaves(t, F, T).
  )",
                         &db2);
  ASSERT_TRUE(reference.ok()) << reference.status();
  auto expected = EvaluateDatalog1S(reference->program, db2);
  ASSERT_TRUE(expected.ok()) << expected.status();

  DataValue liege = db.interner().Find("liege");
  DataValue brussels = db.interner().Find("brussels");
  DataValue liege2 = db2.interner().Find("liege");
  DataValue brussels2 = db2.interner().Find("brussels");
  for (int64_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(result->Holds("train_leaves", {liege, brussels}, t),
              expected->Holds("train_leaves", {liege2, brussels2}, t))
        << t;
    EXPECT_EQ(result->Holds("train_arrives", {liege, brussels}, t),
              expected->Holds("train_arrives", {liege2, brussels2}, t))
        << t;
  }
}

TEST(TemplogTranslationTest, EventuallyIntroducesBackwardClosure) {
  // notified holds now if a failure occurs at some future instant.
  auto templog = ParseTemplog(R"(
    next^10 failure(disk).
    always notified(X) :- eventually failure(X).
  )");
  ASSERT_TRUE(templog.ok()) << templog.status();
  Database db;
  auto translated = TranslateToDatalog1S(*templog, &db);
  ASSERT_TRUE(translated.ok()) << translated.status();
  auto result = EvaluateDatalog1S(*translated, db);
  ASSERT_TRUE(result.ok()) << result.status();
  DataValue disk = db.interner().Find("disk");
  for (int64_t t = 0; t < 50; ++t) {
    EXPECT_EQ(result->Holds("notified", {disk}, t), t <= 10) << t;
    EXPECT_EQ(result->Holds("failure", {disk}, t), t == 10) << t;
  }
}

TEST(TemplogTranslationTest, BoxHeadPersistsForever) {
  // Once the alert fires it stays on.
  auto templog = ParseTemplog(R"(
    next^7 failure(disk).
    always box alert(X) :- failure(X).
  )");
  ASSERT_TRUE(templog.ok()) << templog.status();
  Database db;
  auto translated = TranslateToDatalog1S(*templog, &db);
  ASSERT_TRUE(translated.ok()) << translated.status();
  auto result = EvaluateDatalog1S(*translated, db);
  ASSERT_TRUE(result.ok()) << result.status();
  DataValue disk = db.interner().Find("disk");
  for (int64_t t = 0; t < 100; ++t) {
    EXPECT_EQ(result->Holds("alert", {disk}, t), t >= 7) << t;
  }
}

TEST(TemplogTranslationTest, NonAlwaysClauseAssertsAtTimeZeroOnly) {
  // Without the outer box, the rule only fires at instant 0.
  auto templog = ParseTemplog(R"(
    p(a).
    next^3 p(a).
    q(X) :- p(X).
  )");
  ASSERT_TRUE(templog.ok()) << templog.status();
  Database db;
  auto translated = TranslateToDatalog1S(*templog, &db);
  ASSERT_TRUE(translated.ok()) << translated.status();
  auto result = EvaluateDatalog1S(*translated, db);
  ASSERT_TRUE(result.ok()) << result.status();
  DataValue a = db.interner().Find("a");
  EXPECT_TRUE(result->Holds("q", {a}, 0));
  // p holds at 3 but the q-rule was only asserted at 0.
  EXPECT_TRUE(result->Holds("p", {a}, 3));
  EXPECT_FALSE(result->Holds("q", {a}, 3));
}

// A quoted argument is a constant even when it starts with an uppercase
// letter, as in the program and FO languages.
TEST(TemplogTranslationTest, QuotedArgumentsAreConstants) {
  auto templog = ParseTemplog(R"(
    next^2 p("Alice", bob).
    always q(X) :- p("Alice", X).
  )");
  ASSERT_TRUE(templog.ok()) << templog.status();
  Database db;
  auto translated = TranslateToDatalog1S(*templog, &db);
  ASSERT_TRUE(translated.ok()) << translated.status();
  const DataValue alice = db.interner().Find("Alice");
  const DataValue bob = db.interner().Find("bob");
  ASSERT_GE(alice, 0);
  const std::vector<Clause>& clauses = translated->clauses();
  ASSERT_EQ(clauses.size(), 2u);
  EXPECT_EQ(clauses[0].head.data_args[0], DataTerm::Constant(alice));
  const auto& body = std::get<PredicateAtom>(clauses[1].body[0]);
  EXPECT_EQ(body.data_args[0], DataTerm::Constant(alice));
  auto result = EvaluateDatalog1S(*translated, db);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->Holds("p", {alice, bob}, 2));
  EXPECT_TRUE(result->Holds("q", {bob}, 2));
  EXPECT_FALSE(result->Holds("q", {alice}, 2));
}

TEST(TemplogTranslationTest, InconsistentArityRejected) {
  auto templog = ParseTemplog(R"(
    p(a).
    p(a, b).
  )");
  ASSERT_TRUE(templog.ok()) << templog.status();
  Database db;
  EXPECT_FALSE(TranslateToDatalog1S(*templog, &db).ok());
}

// The exact text of representative parse errors: each names its
// line:column and the token the parser stopped at. A next count must fit
// in an int, alone or summed over its clause's stacked operators.
TEST(TemplogParserTest, ErrorMessagesArePinned) {
  struct Case {
    const char* source;
    const char* message;
  };
  const Case cases[] = {
      {"next^ p.", "line 1:8: expected number after ^ (at 'p')"},
      {"p( .", "line 1:5: expected argument (at '.')"},
      {"p", "line 1:2: expected '.'"},
      {"always p(X) :- q(X)\nr.", "line 2:2: expected '.' (at 'r')"},
      {"next^4294967297 p.",
       "line 1:16: next count overflows int (at '4294967297')"},
      {"next^3000000000 p.",
       "line 1:16: next count overflows int (at '3000000000')"},
      {"next^2147483647 next p.",
       "line 1:23: next count overflows int (at 'p')"},
  };
  for (const Case& c : cases) {
    auto program = ParseTemplog(c.source);
    ASSERT_FALSE(program.ok()) << c.source;
    EXPECT_EQ(program.status().code(), StatusCode::kParseError) << c.source;
    EXPECT_EQ(program.status().message(), c.message) << c.source;
  }
  auto largest = ParseTemplog("next^2147483646 next p.");
  ASSERT_TRUE(largest.ok()) << largest.status();
  EXPECT_EQ(largest->clauses[0].head.next_count, 2147483647);
}

// A lexical error anywhere in the program is reported in preference to a
// parse error that comes before it.
TEST(TemplogParserTest, LexicalErrorAfterParseErrorWins) {
  auto program = ParseTemplog("next^ p.\nq(X) :- r(X).\ns(#).");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().message(), "line 3:3: unexpected character '#'");
}

}  // namespace
}  // namespace lrpdb
