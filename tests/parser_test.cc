#include "src/parser/parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/parser/lexer.h"
#include "src/storage/codec.h"
#include "tests/counting_new.h"

namespace lrpdb {
namespace {

// Lexes all of `input`, ending with its kEnd token.
StatusOr<std::vector<Token>> LexAll(std::string_view input) {
  Lexer lexer(input);
  std::vector<Token> tokens;
  do {
    LRPDB_RETURN_IF_ERROR(lexer.Next(&tokens.emplace_back()));
  } while (tokens.back().kind != TokenKind::kEnd);
  return tokens;
}

TEST(LexerTest, BasicTokens) {
  auto tokens = LexAll(".decl p(time) ?- p(5n+3). % comment\n// c2");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kDirective, TokenKind::kIdentifier,
                TokenKind::kLeftParen, TokenKind::kIdentifier,
                TokenKind::kRightParen, TokenKind::kQuery,
                TokenKind::kIdentifier, TokenKind::kLeftParen,
                TokenKind::kNumber, TokenKind::kIdentifier, TokenKind::kPlus,
                TokenKind::kNumber, TokenKind::kRightParen,
                TokenKind::kPeriod, TokenKind::kEnd}));
  EXPECT_TRUE((*tokens)[9].glued_to_previous);  // 'n' glued to '5'.
}

TEST(LexerTest, GluedTracking) {
  auto tokens = LexAll("5 n 5n");
  ASSERT_TRUE(tokens.ok());
  EXPECT_FALSE((*tokens)[1].glued_to_previous);
  EXPECT_TRUE((*tokens)[3].glued_to_previous);
}

TEST(LexerTest, Strings) {
  auto tokens = LexAll("\"database course\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "database course");
  EXPECT_FALSE(LexAll("\"unterminated").ok());
}

TEST(LexerTest, ComparisonOperators) {
  auto tokens = LexAll("< <= = >= > :- ?-");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kLess);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kLessEqual);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kEqual);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kGreaterEqual);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kGreater);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kImplies);
  EXPECT_EQ((*tokens)[6].kind, TokenKind::kQuery);
}

TEST(LexerTest, TokensAreViewsIntoTheInput) {
  // Long enough to live on the heap rather than in the string object.
  const std::string source =
      ".decl route(time, data)\n.fact route(12n+3, \"liege\") with T1 >= 0.";
  auto tokens = LexAll(source);
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  const char* begin = source.data();
  const char* end = begin + source.size();
  for (const Token& t : *tokens) {
    if (t.kind == TokenKind::kEnd) continue;
    EXPECT_GE(t.text.data(), begin) << t.text;
    EXPECT_LE(t.text.data() + t.text.size(), end) << t.text;
    EXPECT_EQ(t.text, source.substr(t.text.data() - begin, t.text.size()));
  }
  // A string literal's text is the bytes between its quotes.
  auto liege = std::find_if(tokens->begin(), tokens->end(), [](const Token& t) {
    return t.kind == TokenKind::kString;
  });
  ASSERT_NE(liege, tokens->end());
  EXPECT_EQ(liege->text, "liege");
  EXPECT_EQ(liege->text.data(), begin + source.find("liege"));
}

TEST(LexerTest, NextRepeatsEndAndFirstError) {
  Lexer lexer("p #q");
  Token token;
  ASSERT_TRUE(lexer.Next(&token).ok());
  EXPECT_EQ(token.text, "p");
  Status first = lexer.Next(&token);
  EXPECT_EQ(first.message(), "line 1:3: unexpected character '#'");
  EXPECT_EQ(lexer.Next(&token).message(), first.message());

  Lexer done("x");
  ASSERT_TRUE(done.Next(&token).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(done.Next(&token).ok());
    EXPECT_EQ(token.kind, TokenKind::kEnd);
    EXPECT_EQ(token.column, 2);
  }
}

TEST(ParserTest, TrainScheduleExample21) {
  Database db;
  auto unit = Parse(R"(
    .decl train(time, time, data, data)
    .fact train(40n+5, 40n+65, "liege", "brussels")
        with T1 >= 0, T2 = T1 + 60.
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto relation = db.Relation("train");
  ASSERT_TRUE(relation.ok());
  DataValue liege = db.interner().Find("liege");
  DataValue brussels = db.interner().Find("brussels");
  EXPECT_TRUE((*relation)->ContainsGround({5, 65}, {liege, brussels}));
  EXPECT_TRUE((*relation)->ContainsGround({45, 105}, {liege, brussels}));
  EXPECT_FALSE((*relation)->ContainsGround({-35, 25}, {liege, brussels}));
  EXPECT_FALSE((*relation)->ContainsGround({5, 66}, {liege, brussels}));
}

TEST(ParserTest, IntegerFactArgumentsBecomePinnedLrps) {
  Database db;
  auto unit = Parse(R"(
    .decl event(time)
    .fact event(42).
    .fact event(-7).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto relation = db.Relation("event");
  ASSERT_TRUE(relation.ok());
  EXPECT_TRUE((*relation)->ContainsGround({42}, {}));
  EXPECT_TRUE((*relation)->ContainsGround({-7}, {}));
  EXPECT_FALSE((*relation)->ContainsGround({41}, {}));
}

TEST(ParserTest, LrpVariants) {
  Database db;
  auto unit = Parse(R"(
    .decl p(time, time, time)
    .fact p(n, 7n, 5n-2).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto relation = db.Relation("p");
  ASSERT_TRUE(relation.ok());
  const GeneralizedTuple& t = (*relation)->tuple(0);
  EXPECT_EQ(t.lrp(0), Lrp(1, 0));
  EXPECT_EQ(t.lrp(1), Lrp(7, 0));
  EXPECT_EQ(t.lrp(2), Lrp(5, -2));
}

TEST(ParserTest, RulesAndQueries) {
  Database db;
  auto unit = Parse(R"(
    .decl a(time, data)
    .decl b(time, data)
    .fact a(3n, "x").
    b(t + 1, D) :- a(t, D), t >= 0.
    ?- b(t, "x").
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  ASSERT_EQ(unit->program.clauses().size(), 1u);
  const Clause& clause = unit->program.clauses()[0];
  EXPECT_EQ(clause.body.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<PredicateAtom>(clause.body[0]));
  EXPECT_TRUE(std::holds_alternative<ConstraintAtom>(clause.body[1]));
  ASSERT_EQ(unit->queries.size(), 1u);
  EXPECT_EQ(unit->queries[0].data_args.size(), 1u);
  EXPECT_TRUE(unit->queries[0].data_args[0].is_constant());
}

TEST(ParserTest, DataVariableCapitalizationConvention) {
  Database db;
  auto unit = Parse(R"(
    .decl a(time, data)
    .decl b(time, data)
    .fact a(3n, liege).
    b(t, Where) :- a(t, Where).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  const Clause& clause = unit->program.clauses()[0];
  EXPECT_FALSE(clause.head.data_args[0].is_constant());
  // And lowercase identifiers are constants.
  EXPECT_GE(db.interner().Find("liege"), 0);
}

TEST(ParserTest, Errors) {
  Database db;
  // Use before declaration.
  EXPECT_FALSE(Parse(".fact p(3n).", &db).ok());
  // Arity mismatch.
  EXPECT_FALSE(Parse(".decl p(time)\n.fact p(3n, 4n).", &db).ok());
  // Data before time in declaration.
  EXPECT_FALSE(Parse(".decl p(data, time)", &db).ok());
  // Zero-period lrp.
  EXPECT_FALSE(Parse(".decl p(time)\n.fact p(0n+3).", &db).ok());
  // Mixed temporal/data use of one variable.
  EXPECT_FALSE(Parse(R"(
    .decl a(time, data)
    .decl b(time, data)
    b(T, T) :- a(T, T).
  )",
                     &db)
                   .ok());
  // Constraint referencing a column out of range.
  EXPECT_FALSE(Parse(".decl p(time)\n.fact p(3n) with T2 = 0.", &db).ok());
  // Missing final period.
  EXPECT_FALSE(Parse(".decl p(time)\n.fact p(3n)", &db).ok());
}

// The exact text of representative parse errors, positions included. A
// token's line:column is where it ends, and a parse error names the token
// it stopped at.
TEST(ParserTest, ErrorMessagesArePinned) {
  struct Case {
    const char* source;
    const char* message;
  };
  const Case cases[] = {
      {".decl p(time)\n.fact p(3n) with T1 >= 0\n.fact p(4n).\n",
       "line 3:6: expected '.' after fact (at 'fact')"},
      {".decl p(time, data)\n.fact p(3n, 5).\n",
       "line 2:14: expected data constant (at '5')"},
      {".decl p(time)\np(t + 1) :- p(t) t > 0.\n",
       "line 2:19: expected '.' after rule (at 't')"},
      {".decl p(time)\n.bogus p.\n",
       "line 2:9: unknown directive '.bogus' (at 'p')"},
      {".decl p(time)\n  .fact p(3n) with T1 > @.\n",
       "line 2:25: unexpected character '@'"},
      {".decl p(time)\n.decl q(time)\np(t + x) :- q(t).\n",
       "line 3:8: expected integer (at 'x')"},
      {".fact undeclared(1).\n",
       "line 1:17: predicate 'undeclared' used before .decl (at 'undeclared')"},
      {".decl p(time)\np(t) :- r(t).\n",
       "line 2:10: predicate 'r' used before .decl (at 'r')"},
      {".decl p(time)\n.fact p(0n+1).\n",
       "line 2:12: lrp period must be non-zero; write the constant c directly "
       "instead of 0n+c (at '+')"},
      {".decl p(time)\n.fact p(3n) with T2 > 0.\n",
       "line 2:20: constraint references column T2 outside the temporal "
       "arity (at 'T2')"},
      {".decl p(time)\n.fact p(3n) with T1 > x.\n",
       "line 2:24: expected T<k> or integer in fact constraint (at 'x')"},
  };
  for (const Case& c : cases) {
    Database db;
    auto unit = Parse(c.source, &db);
    ASSERT_FALSE(unit.ok()) << c.source;
    EXPECT_EQ(unit.status().code(), StatusCode::kParseError) << c.source;
    EXPECT_EQ(unit.status().message(), c.message) << c.source;
  }
}

// A lexical error anywhere in the source is reported in preference to a
// parse error that comes before it.
TEST(ParserTest, LexicalErrorAfterParseErrorWins) {
  Database db;
  auto unit = Parse(".decl p(time)\n.fact q(3n).\n.fact p(\"abc).\n", &db);
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.status().message(), "line 3:15: unterminated string literal");

  std::string source = ".decl p(time)\n.fact p(3n) 7.\n";
  for (int i = 0; i < 100; ++i) source += ".fact p(5n+1).\n";
  source += "p(t) :- p(t), t # 2.\n";
  Database db2;
  auto late = Parse(source, &db2);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().message(), "line 103:17: unexpected character '#'");
}

// Regression: overlong numeric input must surface as kParseError, never as
// an uncaught std::out_of_range from the std::stoi/stoll family (this is an
// exception-free codebase; a throw is a process abort). Both crash sites —
// the lexer's literal scan and the parser's T<k> constraint columns — went
// through throwing std helpers before ParseDecimalInt64.
TEST(ParserTest, OverlongLiterals) {
  // 9223372036854775807 is INT64_MAX; one digit more must be rejected.
  auto max_ok = LexAll("9223372036854775807");
  ASSERT_TRUE(max_ok.ok()) << max_ok.status();
  EXPECT_EQ((*max_ok)[0].number, INT64_MAX);

  auto overflow = LexAll("99999999999999999999");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kParseError);

  Database db;
  auto fact = Parse(".decl p(time)\n.fact p(99999999999999999999n).", &db);
  ASSERT_FALSE(fact.ok());
  EXPECT_EQ(fact.status().code(), StatusCode::kParseError);

  // A constraint column reference too large for int64 (parser-side stoi).
  auto column = Parse(
      ".decl p(time)\n.fact p(3n) with T99999999999999999999 = 0.", &db);
  ASSERT_FALSE(column.ok());
  EXPECT_EQ(column.status().code(), StatusCode::kParseError);
}

// Regression: a constraint whose bound leaves int64 (here -MAX - MAX - 1)
// is a parse error, not signed overflow.
TEST(ParserTest, ConstraintBoundOverflowIsParseError) {
  const char* sources[] = {
      ".decl p(time)\n"
      ".fact p(1n+0) with T1 + 9223372036854775807 < -9223372036854775807.",
      ".decl p(time)\n.fact p(1n) with -9223372036854775807 >= T1 + 2.",
      ".decl p(time)\n.fact p(1n) with T1 + 1 = -9223372036854775807.",
      ".decl p(time)\n.fact p(1n) with 9223372036854775807 > T1 - 1.",
  };
  for (const char* source : sources) {
    Database db;
    auto unit = Parse(source, &db);
    ASSERT_FALSE(unit.ok()) << source;
    EXPECT_EQ(unit.status().code(), StatusCode::kParseError) << source;
    EXPECT_NE(unit.status().message().find("overflows int64"),
              std::string::npos)
        << unit.status();
  }
  // Extreme literals whose difference fits are accepted: T1 in [1, 4].
  Database db;
  auto fits = Parse(
      ".decl p(time)\n.fact p(1n) with "
      "T1 + 9223372036854775803 <= 9223372036854775807, "
      "T1 - 9223372036854775807 > -9223372036854775807.",
      &db);
  ASSERT_TRUE(fits.ok()) << fits.status();
  auto p = db.Relation("p");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE((*p)->ContainsGround({1}, {}));
  EXPECT_TRUE((*p)->ContainsGround({4}, {}));
  EXPECT_FALSE((*p)->ContainsGround({0}, {}));
  EXPECT_FALSE((*p)->ContainsGround({5}, {}));
}

// A generated source of 2e4 facts in every fact form parses to the same
// database as its tuples added directly.
TEST(ParserTest, LargeSourceMatchesDirectlyAddedTuples) {
  constexpr int kFacts = 20000;
  const RelationSchema route_schema{2, 1};
  const RelationSchema tick_schema{1, 0};
  std::string source =
      ".decl route(time, time, data)\n.decl tick(time)\n";
  Database expected;
  ASSERT_TRUE(expected.Declare("route", route_schema).ok());
  ASSERT_TRUE(expected.Declare("tick", tick_schema).ok());
  uint64_t state = 12345;
  auto next = [&](int64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>((state >> 33) % bound);
  };
  for (int i = 0; i < kFacts; ++i) {
    const std::string name = std::string("s").append(std::to_string(i));
    const int64_t period = 1 + next(200);
    const int64_t offset = next(400) - 200;
    const int64_t gap = next(50);
    Dbm dbm(i % 3 == 2 ? 1 : 2);
    switch (i % 3) {
      case 0: {  // Two lrps, a quoted constant and column constraints.
        source += ".fact route(" + std::to_string(period) + "n" +
                  (offset < 0 ? "-" : "+") + std::to_string(std::abs(offset)) +
                  ", n, \"" + name + "\") with T2 = T1 + " +
                  std::to_string(gap) + ", T1 >= " + std::to_string(offset) +
                  ".\n";
        dbm.AddDifferenceEquality(2, 1, gap);
        dbm.AddLowerBound(1, offset);
        ASSERT_TRUE(expected
                        .AddTuple("route", GeneralizedTuple(
                                               {Lrp(period, offset), Lrp(1, 0)},
                                               {expected.Constant(name)}, dbm))
                        .ok());
        break;
      }
      case 1: {  // A pinned integer column and an identifier constant.
        source += ".fact route(" + std::to_string(offset) + ", " +
                  std::to_string(period) + "n, " + name + ") with T1 < T2.\n";
        dbm.AddEquality(1, offset);
        dbm.AddDifferenceUpperBound(1, 2, -1);
        ASSERT_TRUE(expected
                        .AddTuple("route",
                                  GeneralizedTuple({Lrp(1, 0), Lrp(period, 0)},
                                                   {expected.Constant(name)},
                                                   dbm))
                        .ok());
        break;
      }
      default: {  // A temporal-only relation.
        source += ".fact tick(" + std::to_string(period) + "n+" +
                  std::to_string(gap) + ") with T1 <= " +
                  std::to_string(offset + 1000) + ".\n";
        dbm.AddUpperBound(1, offset + 1000);
        ASSERT_TRUE(expected
                        .AddTuple("tick", GeneralizedTuple({Lrp(period, gap)},
                                                           {}, dbm))
                        .ok());
        break;
      }
    }
  }
  Database parsed;
  auto unit = Parse(source, &parsed);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(parsed.ToString(), expected.ToString());
  auto route = parsed.Relation("route");
  ASSERT_TRUE(route.ok());
  EXPECT_GT((*route)->size(), 0u);
}

// The .fact load path pinned against the direct one: a seeded corpus with
// interleaved relations, negative offsets, pinned integer columns,
// equality and strict bounds, unsatisfiable facts, duplicates and comments
// parses to the same database text and the same snapshot image bytes as
// its tuples added directly, constants interned in the same order.
TEST(ParserTest, SeededCorpusMatchesDirectInsertsByteForByte) {
  std::string source =
      "// seeded corpus\n.decl route(time, time, data)\n.decl tick(time)\n"
      ".decl pair(time, data, data)\n";
  Database expected;
  ASSERT_TRUE(expected.Declare("route", {2, 1}).ok());
  ASSERT_TRUE(expected.Declare("tick", {1, 0}).ok());
  ASSERT_TRUE(expected.Declare("pair", {1, 2}).ok());
  uint64_t state = 20240601;
  auto next = [&](int64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>((state >> 33) % bound);
  };
  // "Pn+O" / "Pn-O" for Lrp(P, O), O possibly negative.
  auto lrp_text = [](int64_t period, int64_t offset) {
    return std::to_string(period) + "n" + (offset < 0 ? "-" : "+") +
           std::to_string(offset < 0 ? -offset : offset);
  };
  struct Emitted {
    std::string text;
    const char* relation;
    GeneralizedTuple tuple;
  };
  std::vector<Emitted> emitted;
  auto emit = [&](std::string text, const char* relation,
                  GeneralizedTuple tuple) {
    source += text;
    ASSERT_TRUE(expected.AddTuple(relation, tuple).ok());
    emitted.push_back({std::move(text), relation, std::move(tuple)});
  };
  for (int i = 0; i < 3000; ++i) {
    if (!emitted.empty() && next(10) == 0) {  // Repeat an earlier fact.
      const Emitted again =
          emitted[next(static_cast<int64_t>(emitted.size()))];
      emit(again.text, again.relation, again.tuple);
      continue;
    }
    if (next(8) == 0) source += next(2) == 0 ? "% comment\n" : "  // note\n";
    const int64_t period = 1 + next(60);
    const int64_t offset = next(200) - 100;
    const int64_t lo = next(400) - 200;
    const int64_t width = next(300) - 20;  // Negative: unsatisfiable.
    switch (next(3)) {
      case 0: {  // Two lrps, an equality and a strict upper bound.
        const std::string name =
            std::string("s").append(std::to_string(next(50)));
        const int64_t gap = next(30) - 10;
        Dbm dbm(2);
        dbm.AddDifferenceEquality(2, 1, gap);
        dbm.AddLowerBound(1, lo);
        dbm.AddUpperBound(1, lo + width - 1);
        emit(".fact route(" + lrp_text(period, offset) + ", n, \"" + name +
                 "\") with T2 = T1 + " + std::to_string(gap) + ", T1 >= " +
                 std::to_string(lo) + ", T1 < " + std::to_string(lo + width) +
                 ".\n",
             "route",
             GeneralizedTuple({Lrp(period, offset), Lrp(1, 0)},
                              {expected.Constant(name)}, dbm));
        break;
      }
      case 1: {  // A pinned integer column and a strict lower bound.
        Dbm dbm(1);
        dbm.AddEquality(1, offset);
        dbm.AddLowerBound(1, lo + 1);
        emit(".fact tick(" + std::to_string(offset) + ") with T1 > " +
                 std::to_string(lo) + ".\n",
             "tick", GeneralizedTuple({Lrp(1, 0)}, {}, dbm));
        break;
      }
      default: {  // A quoted and a bare constant; a closed window.
        const std::string a = std::string("a").append(std::to_string(next(20)));
        const std::string b = std::string("b").append(std::to_string(next(20)));
        Dbm dbm(1);
        dbm.AddLowerBound(1, lo);
        dbm.AddUpperBound(1, lo + width);
        const DataValue da = expected.Constant(a);
        const DataValue db = expected.Constant(b);
        emit(".fact pair(" + lrp_text(period, offset) + ", \"" + a + "\", " +
                 b + ") with T1 >= " + std::to_string(lo) + ", T1 <= " +
                 std::to_string(lo + width) + ". // trailing\n",
             "pair", GeneralizedTuple({Lrp(period, offset)}, {da, db}, dbm));
        break;
      }
    }
  }
  Database parsed;
  auto unit = Parse(source, &parsed);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(parsed.ToString(), expected.ToString());
  EXPECT_EQ(storage::EncodeDatabaseImage(parsed),
            storage::EncodeDatabaseImage(expected));
}

// A .fact allocates nothing of its own: the relation is resolved once, the
// fact is built in scratch buffers and appended straight into the store's
// arenas, and interning a known constant does not allocate. What is left
// is amortized growth (posting lists, signature buckets) and the parse's
// fixed set-up, well under 0.05 allocations per fact over 20k facts.
// Loading facts allocates only as the flat structures behind them grow:
// over a few constants, and over a new constant in both data columns of
// every fact (names of at most 15 chars stay inside their std::string, and
// a value's first posting is held inline in its table slot).
TEST(ParserTest, FactsOverFewConstantsBarelyAllocate) {
  constexpr int kFacts = 20000;
  for (const bool distinct : {false, true}) {
    SCOPED_TRACE(distinct ? "a new constant per fact" : "few constants");
    std::string source =
        ".decl takes(time, data, data)\n.decl advises(time, data, data)\n";
    for (int i = 0; i < kFacts; ++i) {
      const std::string student = std::to_string(distinct ? i : i % 4);
      const std::string course = std::to_string(distinct ? i : i % 5);
      source += std::string(".fact ") + (i % 3 == 0 ? "advises" : "takes") +
                "(12n+" + std::to_string(i % 2) + ", \"s" + student +
                "\", \"c" + course + "\") with T1 >= " + std::to_string(i) +
                ", T1 <= " + std::to_string(i + 40) + ".\n";
    }
    Database db;
    const int64_t before = lrpdb_testing::AllocationCount();
    auto unit = Parse(source, &db);
    const int64_t allocations = lrpdb_testing::AllocationCount() - before;
    ASSERT_TRUE(unit.ok()) << unit.status();
    auto takes = db.Relation("takes");
    auto advises = db.Relation("advises");
    ASSERT_TRUE(takes.ok() && advises.ok());
    ASSERT_EQ((*takes)->size() + (*advises)->size(), size_t{kFacts});
    EXPECT_LT(static_cast<double>(allocations) / kFacts, 0.05)
        << allocations << " allocations for " << kFacts << " facts";
  }
}

TEST(LexerTest, ParseDecimalInt64Bounds) {
  auto v = ParseDecimalInt64("0");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0);
  EXPECT_FALSE(ParseDecimalInt64("").ok());
  EXPECT_FALSE(ParseDecimalInt64("12a").ok());
  EXPECT_FALSE(ParseDecimalInt64("9223372036854775808").ok());  // MAX + 1.
}

TEST(ParserTest, ZeroAryPredicates) {
  Database db;
  auto unit = Parse(R"(
    .decl tick(time)
    .decl alarm()
    .fact tick(7n).
    alarm :- tick(t), t > 100.
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  EXPECT_EQ(unit->program.clauses()[0].head.temporal_args.size(), 0u);
}

TEST(ParserTest, ProgramToStringRoundTripsStructure) {
  Database db;
  auto unit = Parse(R"(
    .decl course(time, time, data)
    .decl problems(time, time, data)
    .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
    problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  std::string text = unit->program.ToString();
  EXPECT_NE(text.find("problems(t1+2, t2+2, N) :- course(t1, t2, N)."),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace lrpdb
