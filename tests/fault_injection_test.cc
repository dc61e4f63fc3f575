// Fault injection: failpoint mechanics, and a walk over every registered
// site asserting the injected error propagates out of the public API as a
// clean Status (no crash, no leak -- the suite also runs under ASan/TSan
// via ci/check.sh --faults).
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"
#include "src/core/provenance.h"
#include "src/datalog1s/datalog1s.h"
#include "src/gdb/algebra.h"
#include "src/parser/parser.h"
#include "tests/fo_query.h"

namespace lrpdb {
namespace {

using failpoint::Arm;
using failpoint::ArmFromSpec;
using failpoint::Disarm;
using failpoint::DisarmAll;
using failpoint::Fires;
using failpoint::Mode;
using failpoint::RegisteredNames;

// A function-scoped site for the mode unit tests (never reached by the
// engine battery).
Status HitUnitSite() {
  LRPDB_FAILPOINT("test.unit_site");
  return OkStatus();
}

Status HitPendingSite() {
  LRPDB_FAILPOINT("test.pending_site");
  return OkStatus();
}

TEST(FailpointTest, DisarmedSiteIsFree) {
  DisarmAll();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(HitUnitSite().ok());
  }
  EXPECT_EQ(Fires("test.unit_site"), 0);
}

TEST(FailpointTest, ErrorOnceFiresOnceThenDisarms) {
  DisarmAll();
  Arm("test.unit_site", Mode::kErrorOnce);
  Status first = HitUnitSite();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kInternal);
  EXPECT_NE(first.ToString().find("failpoint 'test.unit_site'"),
            std::string::npos);
  EXPECT_TRUE(HitUnitSite().ok());
  EXPECT_TRUE(HitUnitSite().ok());
  EXPECT_EQ(Fires("test.unit_site"), 1);
  DisarmAll();
}

TEST(FailpointTest, ErrorEveryNFiresOnMultiples) {
  DisarmAll();
  Arm("test.unit_site", Mode::kErrorEveryN, 3);
  std::vector<bool> errored;
  for (int i = 0; i < 9; ++i) errored.push_back(!HitUnitSite().ok());
  EXPECT_EQ(errored, std::vector<bool>(
                         {false, false, true, false, false, true, false,
                          false, true}));
  EXPECT_EQ(Fires("test.unit_site"), 3);
  DisarmAll();
}

TEST(FailpointTest, ErrorAlwaysFiresEveryHit) {
  DisarmAll();
  Arm("test.unit_site", Mode::kErrorAlways);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(HitUnitSite().ok());
  EXPECT_EQ(Fires("test.unit_site"), 5);
  DisarmAll();
}

TEST(FailpointTest, TripBudgetTripsCurrentExecContext) {
  DisarmAll();
  Arm("test.unit_site", Mode::kTripBudget);
  {
    ExecContext exec;
    ExecContext::ScopedCurrent scope(&exec);
    Status status = HitUnitSite();
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(exec.tripped());
    EXPECT_EQ(exec.trip_code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(IsGovernanceTrip(&exec, status));
  }
  // Without an ambient context the hit still errors, just ungoverned.
  Arm("test.unit_site", Mode::kTripBudget);
  Status bare = HitUnitSite();
  EXPECT_EQ(bare.code(), StatusCode::kResourceExhausted);
  DisarmAll();
}

TEST(FailpointTest, ArmFromSpecParsesAndArms) {
  DisarmAll();
  ASSERT_TRUE(ArmFromSpec("test.unit_site=error-every-2").ok());
  EXPECT_TRUE(HitUnitSite().ok());
  EXPECT_FALSE(HitUnitSite().ok());
  DisarmAll();
}

TEST(FailpointTest, ArmFromSpecAppliesToLaterRegisteredSites) {
  DisarmAll();
  // test.pending_site has never executed, so this lands as a pending spec
  // applied at registration time -- the LRPDB_FAILPOINTS env contract.
  ASSERT_TRUE(ArmFromSpec("test.pending_site=error-once").ok());
  Status first = HitPendingSite();
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.ToString().find("test.pending_site"), std::string::npos);
  EXPECT_TRUE(HitPendingSite().ok());
  DisarmAll();
}

TEST(FailpointTest, ArmFromSpecRejectsBadEntries) {
  DisarmAll();
  EXPECT_EQ(ArmFromSpec("test.unit_site=bogus").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmFromSpec("=error").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmFromSpec("test.unit_site").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmFromSpec("test.unit_site=error-every-").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ArmFromSpec("test.unit_site=error-every-0").code(),
            StatusCode::kInvalidArgument);
  DisarmAll();
}

// ---- The registered-site walk ----

constexpr char kEvalProgram[] = R"(
  .decl e(time, time)
  .decl p(time, time)
  .fact e(24n+8, 24n+10) with T2 = T1 + 2.
  p(t1 + 2, t2 + 2) :- e(t1, t2).
  p(t1 + 7, t2 + 7) :- p(t1, t2).
)";

constexpr char kDatalogProgram[] = R"(
  .decl s(time)
  s(0).
  s(t + 1) :- s(t).
)";

// Runs one of everything: generalized evaluation with provenance (trace +
// provenance recording and lookup + query atom) and without, ground
// evaluation, Datalog1S, every algebra operator and an FO query.
// Returns all statuses produced; CHECKs only on paths with no failpoints
// (the parser).
std::vector<Status> RunBattery() {
  std::vector<Status> statuses;
  auto note = [&statuses](Status s) { statuses.push_back(std::move(s)); };

  {
    Database db;
    auto unit = Parse(kEvalProgram, &db);
    LRPDB_CHECK(unit.ok()) << unit.status();
    EvaluationOptions options;
    options.record_trace = true;
    // Recording + lookup reach the provenance failpoints.
    ProvenanceLog prov_log;
    options.provenance = &prov_log;
    auto result = Evaluate(unit->program, db, options);
    note(result.status());
    if (result.ok()) {
      ProvRef root{prov_log.InternRelation("p"), 0};
      note(prov_log.WhyProvenance(root).status());
      PredicateAtom query;
      query.predicate = unit->program.predicates().Find("p");
      SymbolId t1 = unit->program.variables().Intern("qt1");
      SymbolId t2 = unit->program.variables().Intern("qt2");
      query.temporal_args = {TemporalTerm::Variable(t1),
                             TemporalTerm::Variable(t2)};
      note(QueryAtom(unit->program, db, *result, query).status());
    }
  }
  {
    Database db;
    auto unit = Parse(kEvalProgram, &db);
    LRPDB_CHECK(unit.ok()) << unit.status();
    note(Evaluate(unit->program, db).status());
  }
  {
    Database db;
    auto unit = Parse(kDatalogProgram, &db);
    LRPDB_CHECK(unit.ok()) << unit.status();
    GroundEvaluationOptions ground;
    ground.window_hi = 64;
    note(EvaluateGround(unit->program, db, ground).status());
    Datalog1SOptions d1s;
    d1s.initial_horizon = 64;
    note(EvaluateDatalog1S(unit->program, db, d1s).status());
  }
  {
    // Small relation pair driving every algebra operator, and an FO query
    // driving the clause kernel, union and complement.
    std::map<std::string, GeneralizedRelation> relations;
    GeneralizedRelation& a =
        relations.emplace("a", RelationSchema{1, 0}).first->second;
    GeneralizedRelation& b =
        relations.emplace("b", RelationSchema{1, 0}).first->second;
    Dbm window(1);
    window.AddDifferenceUpperBound(1, 0, 100);  // T1 <= 100.
    window.AddDifferenceUpperBound(0, 1, 0);    // T1 >= 0.
    note(a.Insert(GeneralizedTuple({Lrp(6, 1)}, {}, window)).status());
    note(a.Insert(GeneralizedTuple({Lrp(6, 4)}, {}, window)).status());
    note(b.Insert(GeneralizedTuple({Lrp(3, 1)}, {}, window)).status());
    note(Union(a, b).status());
    note(Difference(a, b).status());
    note(Complement(a, {{}}).status());
    std::vector<GeneralizedTuple> pieces;
    for (size_t i = 0; i < a.size(); ++i) pieces.push_back(a.tuple(i));
    note(CoalesceTuples(std::move(pieces)).status());
    note(SameGroundSet(a, a).status());
    Database db;
    note(AnswerFo("exists u (a(t) & b(u + 3) & u <= t) | ~a(t)", relations,
                  &db)
             .status());
  }
  return statuses;
}

TEST(FaultInjectionWalkTest, EveryRegisteredSitePropagatesCleanly) {
  DisarmAll();
  // Prime: one clean run registers every site the battery reaches.
  for (const Status& s : RunBattery()) {
    ASSERT_TRUE(s.ok()) << "priming run failed: " << s.ToString();
  }
  std::vector<std::string> engine_sites;
  for (const std::string& name : RegisteredNames()) {
    if (name.rfind("test.", 0) != 0) engine_sites.push_back(name);
  }
  // Tentpole acceptance: the walk covers at least 15 engine sites.
  EXPECT_GE(engine_sites.size(), 15u)
      << "battery reaches too few failpoints";

  for (const std::string& name : engine_sites) {
    DisarmAll();
    Arm(name, Mode::kErrorOnce);
    bool surfaced = false;
    for (const Status& s : RunBattery()) {
      if (s.ok()) continue;
      EXPECT_NE(s.ToString().find("failpoint '" + name + "'"),
                std::string::npos)
          << "unexpected error with '" << name << "' armed: " << s.ToString();
      surfaced = true;
    }
    EXPECT_TRUE(surfaced) << "injected error at '" << name
                          << "' never surfaced";
    EXPECT_EQ(Fires(name), 1) << name;
  }
  DisarmAll();
}

TEST(FaultInjectionWalkTest, TripBudgetAtInsertDegradesGracefully) {
  DisarmAll();
  Database db;
  auto unit = Parse(kEvalProgram, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  Arm("tuple_store.insert", Mode::kTripBudget);
  ExecContext exec;
  EvaluationOptions options;
  options.exec = &exec;
  // The injected trip is indistinguishable from a genuinely blown budget,
  // so Evaluate() degrades instead of hard-failing.
  auto result = Evaluate(unit->program, db, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->partial.tripped());
  EXPECT_EQ(result->partial.trip, StatusCode::kResourceExhausted);
  EXPECT_NE(result->partial.reason.find("tuple_store.insert"),
            std::string::npos);
  DisarmAll();
}

TEST(FaultInjectionWalkTest, ProvenanceRecordErrorUnwindsAndRerunIsClean) {
  DisarmAll();
  Arm("provenance.record", Mode::kErrorOnce);
  {
    Database db;
    auto unit = Parse(kEvalProgram, &db);
    ASSERT_TRUE(unit.ok()) << unit.status();
    ProvenanceLog log;
    EvaluationOptions options;
    options.provenance = &log;
    auto result = Evaluate(unit->program, db, options);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().ToString().find("failpoint 'provenance.record'"),
              std::string::npos)
        << result.status();
  }
  // The failed Record appended nothing; a fresh run records a complete log.
  {
    Database db;
    auto unit = Parse(kEvalProgram, &db);
    ASSERT_TRUE(unit.ok()) << unit.status();
    ProvenanceLog log;
    EvaluationOptions options;
    options.provenance = &log;
    auto result = Evaluate(unit->program, db, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_GT(log.records(), 0);
    auto rid = log.FindRelation("p");
    ASSERT_TRUE(rid.has_value());
    for (size_t e = 0; e < result->idb.at("p").size(); ++e) {
      EXPECT_TRUE(log.HasOrigins({*rid, static_cast<EntryId>(e)}));
    }
  }
  DisarmAll();
}

TEST(FaultInjectionWalkTest, ProvenanceLookupErrorSurfaces) {
  DisarmAll();
  ProvenanceLog log;
  ProvRelationId rid = log.InternRelation("p");
  Arm("provenance.lookup", Mode::kErrorOnce);
  auto graph = log.WhyProvenance({rid, 0});
  ASSERT_FALSE(graph.ok());
  EXPECT_NE(graph.status().ToString().find("failpoint 'provenance.lookup'"),
            std::string::npos);
  EXPECT_TRUE(log.WhyProvenance({rid, 0}).ok());
  DisarmAll();
}

TEST(FaultInjectionWalkTest, ConcurrentArmDisarmIsRaceFree) {
  DisarmAll();
  Database db;
  auto unit = Parse(kEvalProgram, &db);
  ASSERT_TRUE(unit.ok()) << unit.status();
  std::atomic<bool> stop{false};
  std::thread toggler([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      Arm("tuple_store.insert", Mode::kErrorEveryN, 1000);
      Disarm("tuple_store.insert");
    }
  });
  for (int i = 0; i < 10; ++i) {
    // Either outcome is fine; the invariant is no data race and no crash
    // while the site is being toggled (TSan checks this).
    auto result = Evaluate(unit->program, db);
    if (!result.ok()) {
      EXPECT_NE(result.status().ToString().find("failpoint"),
                std::string::npos);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  toggler.join();
  DisarmAll();
}

}  // namespace
}  // namespace lrpdb
