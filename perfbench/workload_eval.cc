// closed_form_eval: repeated from-scratch Evaluate() of kProgram over about
// 1e5 periodic facts. Evaluate ships with provenance off, so this workload
// does no storage, incremental or provenance work: it measures the apply
// layer (clause plans, batch kernel) and the insert/subsumption layer
// (tuple store, DBM containment).
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/generator.h"
#include "perfbench/harness.h"
#include "perfbench/stats.h"
#include "src/core/evaluator.h"
#include "src/core/ground_evaluator.h"
#include "src/parser/parser.h"

namespace perfbench {

namespace {

constexpr int kDepartments = 54;  // with kStudents, about 1e5 facts
constexpr int kStudents = 300;
// The oracle compares ground models inside [0, kOracleHi).
constexpr int64_t kOracleHi = 504;
constexpr int kMinEvaluations = 5;
// Timed set-ups per run, after the warm-up; setup_s is their median.
constexpr int kSetups = 7;

struct Loaded {
  std::unique_ptr<lrpdb::Database> db;
  std::unique_ptr<lrpdb::ParsedUnit> unit;
  InputProfile profile;
};

}  // namespace

void RunClosedFormEval(const Options& o, Results* out) {
  SpanRecorder spans(o.trace);

  // Set-up: generate the facts as surface syntax and parse them into
  // `loaded`, replacing the last set-up.
  Loaded loaded;
  std::vector<double> setup_s;
  std::vector<double> parse_ms;
  auto set_up = [&] {
    loaded = Loaded{};  // release the previous copy before building anew
    const int64_t start = NowNs();
    Generator gen(o.seed, kDepartments, kStudents);
    const std::string source = Source(gen.base());
    loaded.db = std::make_unique<lrpdb::Database>();
    const int64_t parse_start = NowNs();
    lrpdb::StatusOr<lrpdb::ParsedUnit> unit = [&] {
      Scope span(&spans, "Parse");
      return lrpdb::Parse(source, loaded.db.get());
    }();
    parse_ms.push_back(SecondsSince(parse_start) * 1e3);
    if (!unit.ok()) {
      out->Check(false, "parse: " + unit.status().ToString());
      return false;
    }
    loaded.unit = std::make_unique<lrpdb::ParsedUnit>(std::move(*unit));
    setup_s.push_back(SecondsSince(start));
    loaded.profile = Profile(gen.base());
    return true;
  };

  std::optional<lrpdb::EvaluationResult> first;
  RoundTotals totals;
  int64_t batch_in = 0;
  int64_t batch_out = 0;
  int64_t op = 0;
  int64_t measured = 0;  // evaluations behind `totals`
  double measured_ms = 0;

  // One closed-loop operation: a from-scratch evaluation.
  auto evaluate = [&](std::vector<double>* latencies) {
    spans.set_op(++op);
    const int64_t in0 = Counter("eval.batch.tuples_in");
    const int64_t out0 = Counter("eval.batch.tuples_out");
    const int64_t start = NowNs();
    lrpdb::StatusOr<lrpdb::EvaluationResult> result = [&] {
      Scope span(&spans, "Evaluate");
      // The set-up being timed after the warm-up replaces `loaded`; every
      // set-up of one seed builds the same database.
      return lrpdb::Evaluate(loaded.unit->program, *loaded.db);
    }();
    latencies->push_back(SecondsSince(start) * 1e3);
    if (first.has_value()) {
      batch_in += Counter("eval.batch.tuples_in") - in0;
      batch_out += Counter("eval.batch.tuples_out") - out0;
    }
    if (!result.ok()) {
      out->AttemptOk(result.status(), "Evaluate");
      return;
    }
    bool ok = result->reached_fixpoint;
    if (first.has_value()) {
      ok = ok && result->TuplesStored() == first->TuplesStored() &&
           result->iterations == first->iterations;
    }
    out->Attempt(ok, "Evaluate: no fixpoint or a model that differs from "
                     "the first evaluation");
    if (!first.has_value()) {
      first = std::move(*result);
    } else {
      totals.Add(*result);
      ++measured;
      measured_ms += latencies->back();
    }
  };
  // Warm-up: the first set-up and evaluation pay for fresh pages and
  // allocator growth that later ones reuse, so neither is timed. Its model
  // is the one the oracle checks. The timed set-ups follow together, not
  // between evaluations: interleaved, they left peak memory at one of two
  // levels (about 481 or 522 MiB) from run to run, as the heap fragmented.
  if (!set_up()) return;
  std::vector<double> warmup;
  evaluate(&warmup);
  setup_s.clear();
  parse_ms.clear();
  for (int i = 0; i < kSetups; ++i) {
    if (!set_up()) return;
  }
  const lrpdb::Program& program = loaded.unit->program;
  const lrpdb::Database& db = *loaded.db;

  // With tracing on, every other evaluation records spans; the ratio of
  // the two halves' medians is the tracing overhead.
  std::vector<double> latencies;
  std::vector<double> by_parity[2];
  const int64_t start = NowNs();
  while ((SecondsSince(start) < o.seconds ||
          static_cast<int>(latencies.size()) < kMinEvaluations) &&
         SecondsSince(start) < kMeasureCapSeconds) {
    const size_t parity = latencies.size() % 2;
    spans.set_enabled(o.trace && parity == 1);
    evaluate(&latencies);
    by_parity[parity].push_back(latencies.back());
  }
  const double wall_s = SecondsSince(start);
  spans.set_enabled(o.trace);
  if (o.trace) {
    out->SetLayer("trace.overhead_ratio",
                  Median(by_parity[1]) / Median(by_parity[0]));
  }
  const double peak_rss = PeakRssMb();
  const int64_t evaluations = static_cast<int64_t>(latencies.size());

  // Oracle: the bounded-window ground evaluation must equal the generalized
  // model inside the window.
  const int64_t oracle_start = NowNs();
  if (first.has_value()) {
    Scope oracle_span(&spans, "oracle");
    lrpdb::GroundEvaluationOptions ground;
    ground.window_lo = 0;
    ground.window_hi = kOracleHi;
    lrpdb::StatusOr<lrpdb::GroundEvaluationResult> oracle = [&] {
      Scope span(&spans, "EvaluateGround");
      return lrpdb::EvaluateGround(program, db, ground);
    }();
    if (!oracle.ok()) {
      out->Check(false, "EvaluateGround: " + oracle.status().ToString());
    } else {
      GroundImage expected;
      for (const auto& [name, store] : oracle->idb) {
        std::vector<lrpdb::GroundTuple> tuples;
        for (const lrpdb::GroundTuple& t : store) tuples.push_back(t);
        expected[name] = SortedUnique(std::move(tuples));
      }
      GroundImage actual = ImageOf(*first, 0, kOracleHi);
      // Relations empty inside the window may be absent on either side.
      std::erase_if(expected, [](const auto& kv) { return kv.second.empty(); });
      std::erase_if(actual, [](const auto& kv) { return kv.second.empty(); });
      out->Check(expected == actual,
                 "generalized model differs from the ground oracle in "
                 "[0, " + std::to_string(kOracleHi) + ")");
      int64_t ground_facts = 0;
      for (const auto& [name, tuples] : actual) {
        ground_facts += static_cast<int64_t>(tuples.size());
      }
      out->notes.push_back("oracle: " + std::to_string(ground_facts) +
                           " ground IDB facts in [0, " +
                           std::to_string(kOracleHi) + ")");
    }
  }
  const double oracle_ms = SecondsSince(oracle_start) * 1e3;

  const InputProfile& p = loaded.profile;
  out->notes.push_back("input: " + p.ToString());
  if (first.has_value()) {
    RoundTotals one;
    one.Add(*first);
    out->notes.push_back(
        "model: " + std::to_string(first->TuplesStored()) +
        " IDB tuples, " + std::to_string(first->iterations) + " rounds, " +
        std::to_string(one.candidates) + " candidates, " +
        std::to_string(one.candidates - one.inserted) + " subsumed (" +
        std::to_string(one.candidates > 0
                           ? 100.0 * static_cast<double>(one.candidates -
                                                         one.inserted) /
                                 static_cast<double>(one.candidates)
                           : 0.0) +
        "%)");
  }

  out->Set("setup_s", Median(setup_s), "s", kSetups);
  out->Set("eval_s", Median(latencies) / 1e3, "s", evaluations);
  out->Set("ops_per_s", static_cast<double>(evaluations) / wall_s, "1/s",
           evaluations);
  out->Set("peak_rss_mb", peak_rss, "MiB");

  const double parse = Median(parse_ms);
  out->SetLayer("parser.parse_ms", parse);
  out->SetLayer("parser.facts_per_s",
                static_cast<double>(p.facts) / (parse / 1e3));
  SetEvaluatorLayers(totals, measured, measured_ms, batch_in, batch_out,
                     out);
  out->SetLayer("tuple_store.model_bytes",
                first.has_value()
                    ? static_cast<double>(MeasureModel(db, *first).bytes)
                    : 0.0);
  out->SetLayer("oracle.check_ms", oracle_ms);
  WriteSpans(o, spans, out);
}

}  // namespace perfbench
