// Maintenance windows: stratified negation, the Datalog1S explicit form and
// LTL checks cooperating on one scenario.
//
// A metro line runs every 10 minutes around the clock; nightly maintenance
// (01:00-04:59) suppresses departures. The deductive layer derives the
// actual timetable with a negated literal; the Datalog1S engine computes
// the explicit eventually-periodic form of a "steady service" definition;
// LTL validates service-level properties on the characteristic word; the
// bridge converts the result back into a generalized relation; the
// serializer exports the closed form for reuse.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/core/evaluator.h"
#include "src/datalog1s/datalog1s.h"
#include "src/gdb/periodic_bridge.h"
#include "src/gdb/serialize.h"
#include "src/ltl/ltl.h"
#include "src/parser/parser.h"

int main() {
  // Time unit: one minute; day = 1440. The closure window is the union of
  // the 10-minute slots between 01:00 and 04:59, one lrp tuple each.
  std::string source = R"(
    .decl scheduled(time)
    .decl closure_window(time)
    .decl runs(time)
    .fact scheduled(10n).
  )";
  for (int minute = 60; minute < 300; minute += 10) {
    source +=
        ".fact closure_window(1440n+" + std::to_string(minute) + ").\n";
  }
  source += "runs(t) :- scheduled(t), !closure_window(t).\n";

  lrpdb::Database db;
  auto unit = lrpdb::Parse(source, &db);
  if (!unit.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 unit.status().ToString().c_str());
    return EXIT_FAILURE;
  }
  auto result = lrpdb::Evaluate(unit->program, db);
  if (!result.ok()) {
    std::fprintf(stderr, "evaluation error: %s\n",
                 result.status().ToString().c_str());
    return EXIT_FAILURE;
  }
  const lrpdb::GeneralizedRelation& runs = result->Relation("runs");
  std::printf("== timetable with maintenance (stratified negation) ==\n");
  std::printf("fixpoint after %d iterations; %zu generalized tuples\n",
              result->iterations, runs.size());
  std::printf("departures 00:00-06:00 on day one:");
  for (const lrpdb::GroundTuple& t : runs.EnumerateGround(0, 360)) {
    std::printf(" %02ld:%02ld", static_cast<long>(t.times[0] / 60),
                static_cast<long>(t.times[0] % 60));
  }
  std::printf("\n\n");

  // Export the closed form for later reuse ("convert once and for all").
  std::printf("== exported closed form (first lines) ==\n");
  std::string text =
      lrpdb::SerializeRelationAsFacts("runs", runs, db.interner());
  std::printf("%.300s...\n\n", text.c_str());

  // Datalog1S: "steady service" after the nightly window, defined
  // recursively and converted to explicit eventually-periodic form.
  lrpdb::Database db_steady;
  auto resumed = lrpdb::Parse(R"(
    .decl reopened(time)
    .decl steady(time)
    reopened(300).
    reopened(t + 1440) :- reopened(t).
    steady(t + 30) :- reopened(t).
    steady(t + 10) :- steady(t).
  )",
                              &db_steady);
  if (!resumed.ok()) return EXIT_FAILURE;
  auto explicit_form = lrpdb::EvaluateDatalog1S(resumed->program, db_steady);
  if (!explicit_form.ok()) {
    std::fprintf(stderr, "datalog1s error: %s\n",
                 explicit_form.status().ToString().c_str());
    return EXIT_FAILURE;
  }
  const lrpdb::EventuallyPeriodicSet& steady =
      explicit_form->model.at("steady").at({});
  std::printf("== explicit form of 'steady service' (Datalog1S) ==\n");
  std::printf("%s\n\n", steady.ToString().c_str());

  // LTL over the characteristic word: steadiness recurs forever, and every
  // steady instant is followed by another.
  lrpdb::PeriodicWord word = lrpdb::PeriodicWord::Characteristic(steady);
  auto recur = lrpdb::ParseLtl("G F steady");
  auto gap = lrpdb::ParseLtl("G (steady -> X F steady)");
  if (!recur.ok() || !gap.ok()) return EXIT_FAILURE;
  std::printf("== LTL checks on the characteristic word ==\n");
  std::printf("  G F steady: %s\n",
              lrpdb::EvaluateLtl(*recur->formula, word) ? "holds" : "FAILS");
  std::printf("  G (steady -> X F steady): %s\n",
              lrpdb::EvaluateLtl(*gap->formula, word) ? "holds" : "FAILS");

  // Bridge the explicit form back into the lrp representation.
  const lrpdb::GeneralizedRelation as_relation =
      lrpdb::ToGeneralizedRelation(steady);
  std::printf("\n== same set as a generalized relation ==\n%zu tuples\n",
              as_relation.size());
  return EXIT_SUCCESS;
}
