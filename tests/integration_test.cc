// End-to-end integration: the full pipeline a downstream user would run.
//
//   parse program -> evaluate bottom-up -> query the model (QueryAtom and
//   FO over extra_relations) -> export the closed form -> reload it as a
//   plain extensional database -> query again -> identical answers.
//
// This is the paper's Section 1 workflow ("convert once and for all")
// exercised across every module boundary at once.
#include <gtest/gtest.h>

#include "src/core/evaluator.h"
#include "src/datalog1s/datalog1s.h"
#include "src/fo/fo.h"
#include "src/gdb/periodic_bridge.h"
#include "src/gdb/serialize.h"
#include "src/ltl/ltl.h"
#include "src/parser/parser.h"
#include "src/templog/templog.h"

namespace lrpdb {
namespace {

TEST(IntegrationTest, EvaluateExportReloadQuery) {
  constexpr char kProgram[] = R"(
    .decl shift(time, time, data)
    .decl oncall(time, time, data)
    .fact shift(72n+9, 72n+17, "alice") with T2 = T1 + 8.
    .fact shift(72n+33, 72n+41, "bob") with T2 = T1 + 8.
    oncall(t1 - 1, t2 + 1, W) :- shift(t1, t2, W).
    oncall(t1 + 72, t2 + 72, W) :- oncall(t1, t2, W).
  )";
  Database db;
  auto unit = Parse(kProgram, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->reached_fixpoint);
  const GeneralizedRelation& oncall = result->Relation("oncall");
  DataValue alice = db.interner().Find("alice");
  EXPECT_TRUE(oncall.ContainsGround({8, 18}, {alice}));
  EXPECT_TRUE(oncall.ContainsGround({80, 90}, {alice}));

  // FO over the model through extra_relations.
  std::map<std::string, RelationSchema> schemas{
      {"oncall", oncall.schema()}};
  auto query = ParseFoQuery(
      R"(exists t2 (oncall(t1, t2, Who)) & t1 >= 0 & t1 <= 100)", &db,
      &schemas);
  ASSERT_TRUE(query.ok()) << query.status();
  FoOptions options;
  options.extra_relations = &result->idb;
  auto model_answers = EvaluateFoQuery(*query, db, options);
  ASSERT_TRUE(model_answers.ok()) << model_answers.status();

  // Export + reload.
  std::string text =
      SerializeDeclaration("oncall", oncall.schema()) +
      SerializeRelationAsFacts("oncall", oncall, db.interner());
  Database reloaded;
  auto reparsed = Parse(text, &reloaded);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  auto reload_query = ParseFoQuery(
      R"(exists t2 (oncall(t1, t2, Who)) & t1 >= 0 & t1 <= 100)", &reloaded);
  ASSERT_TRUE(reload_query.ok()) << reload_query.status();
  auto reload_answers = EvaluateFoQuery(*reload_query, reloaded);
  ASSERT_TRUE(reload_answers.ok()) << reload_answers.status();

  // Identical ground answers (remap data ids through names).
  auto model_ground = model_answers->relation.EnumerateGround(0, 101);
  auto reload_ground = reload_answers->relation.EnumerateGround(0, 101);
  ASSERT_EQ(model_ground.size(), reload_ground.size());
  for (const GroundTuple& t : model_ground) {
    std::vector<DataValue> remapped;
    for (DataValue d : t.data) {
      remapped.push_back(reloaded.interner().Find(db.interner().NameOf(d)));
    }
    EXPECT_TRUE(reload_answers->relation.ContainsGround(t.times, remapped));
  }
}

TEST(IntegrationTest, TemplogToLrpDatabaseToLtl) {
  // Templog program -> Datalog1S model -> generalized relation -> LTL check
  // on the characteristic word: the full tour of Section 3 in one test.
  auto templog = ParseTemplog(R"(
    next^4 beat.
    always next^6 beat :- beat.
  )");
  ASSERT_TRUE(templog.ok()) << templog.status();
  Database db;
  auto program = TranslateToDatalog1S(*templog, &db);
  ASSERT_TRUE(program.ok()) << program.status();
  auto model = EvaluateDatalog1S(*program, db);
  ASSERT_TRUE(model.ok()) << model.status();
  const EventuallyPeriodicSet& beat = model->model.at("beat").at({});
  EXPECT_EQ(beat, EventuallyPeriodicSet::ArithmeticProgression(4, 6));

  const GeneralizedRelation relation = ToGeneralizedRelation(beat);
  for (int64_t t = 0; t < 60; ++t) {
    EXPECT_EQ(relation.ContainsGround({t}, {}), beat.Contains(t)) << t;
  }

  PeriodicWord word = PeriodicWord::Characteristic(beat);
  auto ltl = ParseLtl("G (beat -> X ~beat) & G F beat");
  ASSERT_TRUE(ltl.ok()) << ltl.status();
  EXPECT_TRUE(EvaluateLtl(*ltl->formula, word));
  // And the satisfaction set of `F beat` is everything (beats recur).
  auto f_beat = ParseLtl("F beat");
  ASSERT_TRUE(f_beat.ok());
  EventuallyPeriodicSet sat = SatisfactionSet(*f_beat->formula, word);
  EXPECT_EQ(sat, EventuallyPeriodicSet::ArithmeticProgression(0, 1));
}

TEST(IntegrationTest, NegationPlusQueryPlusExport) {
  Database db;
  auto unit = Parse(R"(
    .decl bus(time)
    .decl tram(time)
    .decl only_bus(time)
    .fact bus(6n).
    .fact tram(10n).
    only_bus(t) :- bus(t), !tram(t).
  )",
                    &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  auto result = Evaluate(unit->program, db);
  ASSERT_TRUE(result.ok()) << result.status();
  const GeneralizedRelation& only_bus = result->Relation("only_bus");
  for (int64_t t = -60; t <= 60; ++t) {
    bool expected = FloorMod(t, 6) == 0 && FloorMod(t, 10) != 0;
    EXPECT_EQ(only_bus.ContainsGround({t}, {}), expected) << t;
  }
  // Export/reload keeps the negation's result.
  std::string text =
      SerializeDeclaration("only_bus", only_bus.schema()) +
      SerializeRelationAsFacts("only_bus", only_bus, db.interner());
  Database reloaded;
  auto reparsed = Parse(text, &reloaded);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
  auto relation = reloaded.Relation("only_bus");
  for (int64_t t = -60; t <= 60; ++t) {
    EXPECT_EQ((*relation)->ContainsGround({t}, {}),
              only_bus.ContainsGround({t}, {}))
        << t;
  }
}

}  // namespace
}  // namespace lrpdb
