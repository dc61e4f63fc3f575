// live_updates: a model maintained by IncrementalEvaluator (kProgram over a
// small EDB, initial fixpoint in set-up) takes a fixed closed-loop mix of
// writes and reads. One cycle is: a 64-fact AddFacts of new students, point
// queries, then retraction of the 64 oldest facts as 16-fact and 1-fact
// RetractFacts batches, so the live EDB stays flat; every kCompactEvery
// cycles a CompactRetracted. Retraction runs DRed over provenance, which
// IncrementalEvaluator always records in the shipping build.
//
// The run is a sequence of episodes: set up from the seed, run
// kCyclesPerEpisode cycles, check the model. The maintained model keeps
// tombstoned slots and provenance it never reclaims, so one long stream
// would get slower the more cycles it ran; episodes of a fixed length keep
// every measured cycle comparable however fast the machine is.
#include <algorithm>
#include <deque>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/generator.h"
#include "perfbench/harness.h"
#include "perfbench/stats.h"
#include "src/core/evaluator.h"
#include "src/core/incremental.h"
#include "src/parser/parser.h"

namespace perfbench {

namespace {

constexpr int kDepartments = 1;  // with kStudents, about 900 facts
constexpr int kStudents = 150;
constexpr int kAddFacts = 64;
// Retraction batch sizes of one cycle; they sum to kAddFacts.
constexpr int kRetractPlan[] = {16, 16, 16, 14, 1, 1};
constexpr int kQueriesPerCycle = 8;
constexpr int kCompactEvery = 16;
constexpr int kCyclesPerEpisode = 32;
// Episodes cycle through this many input instances drawn from the seed, so
// one run's figures do not hang on the shape of a single small EDB.
constexpr uint64_t kInstances = 4;
// Every kQueryCheckEvery-th query answer is recomputed independently.
constexpr int kQueryCheckEvery = 64;
// Ground window of the model checks: 48 weeks, past every bounded
// validity window the generator emits.
constexpr int64_t kCheckHi = 48 * kPeriod;

// One episode's state: a fresh set-up replaying the seed's inputs.
struct Episode {
  std::unique_ptr<Generator> gen;
  std::unique_ptr<lrpdb::Database> db;
  std::unique_ptr<lrpdb::ParsedUnit> unit;
  std::unique_ptr<lrpdb::IncrementalEvaluator> inc;
  std::vector<Fact> pinned;  // teaches facts, never retracted
  std::deque<Fact> live;     // retractable facts, oldest first
  int64_t live_facts = 0;    // the library's live EDB count after set-up
  // Symbols of the query shapes.
  lrpdb::SymbolId consult = -1, attends = -1;
  lrpdb::SymbolId var_t = -1, var_s = -1, var_p = -1;
};

// Set-up: generate and parse the EDB, then compute the initial fixpoint.
lrpdb::Status SetUp(uint64_t seed, Episode* e, double* parse_ms,
                    SpanRecorder* spans) {
  e->gen = std::make_unique<Generator>(seed, kDepartments, kStudents);
  const std::string source = Source(e->gen->base());
  e->db = std::make_unique<lrpdb::Database>();
  const int64_t parse_start = NowNs();
  lrpdb::StatusOr<lrpdb::ParsedUnit> unit = [&] {
    Scope span(spans, "Parse");
    return lrpdb::Parse(source, e->db.get());
  }();
  *parse_ms = SecondsSince(parse_start) * 1e3;
  if (!unit.ok()) return unit.status();
  e->unit = std::make_unique<lrpdb::ParsedUnit>(std::move(*unit));
  e->inc = std::make_unique<lrpdb::IncrementalEvaluator>(e->unit->program,
                                                         e->db.get());
  {
    Scope span(spans, "Initialize");
    LRPDB_RETURN_IF_ERROR(e->inc->Initialize());
  }
  if (!e->inc->at_fixpoint()) {
    return lrpdb::InternalError("initial model is not a fixpoint");
  }
  e->live_facts = LiveFacts(*e->db);
  for (const Fact& f : e->gen->base()) {
    if (f.rel == Rel::kTeaches) {
      e->pinned.push_back(f);
    } else {
      e->live.push_back(f);
    }
  }
  const lrpdb::Program& program = e->unit->program;
  e->consult = program.predicates().Find("consult");
  e->attends = program.predicates().Find("attends");
  e->var_t = program.variables().Find("t");
  e->var_s = program.variables().Find("S");
  e->var_p = program.variables().Find("P");
  if (e->consult < 0 || e->attends < 0 || e->var_t < 0 || e->var_s < 0 ||
      e->var_p < 0) {
    return lrpdb::InternalError("program symbols missing");
  }
  return lrpdb::OkStatus();
}

// Query `n`: alternately a ground (advisor, student) pair with a temporal
// variable, and a ground time point with data variables.
lrpdb::PredicateAtom NextQuery(int64_t n, Episode* e) {
  lrpdb::PredicateAtom atom;
  if (n % 2 == 0) {
    auto [advisor, student] = e->gen->AdvisedPair();
    atom.predicate = e->consult;
    atom.temporal_args = {lrpdb::TemporalTerm::Variable(e->var_t)};
    atom.data_args = {lrpdb::DataTerm::Constant(e->db->Constant(advisor)),
                      lrpdb::DataTerm::Constant(e->db->Constant(student))};
  } else {
    atom.predicate = e->attends;
    atom.temporal_args = {
        lrpdb::TemporalTerm::Constant(e->gen->TimePoint() % kCheckHi)};
    atom.data_args = {lrpdb::DataTerm::Variable(e->var_s),
                      lrpdb::DataTerm::Variable(e->var_p)};
  }
  return atom;
}

std::vector<lrpdb::FactUpdate> Updates(const std::vector<Fact>& facts,
                                       lrpdb::Database* db) {
  std::vector<lrpdb::FactUpdate> updates;
  updates.reserve(facts.size());
  for (const Fact& f : facts) {
    updates.push_back(lrpdb::FactUpdate{RelName(f.rel), f.ToTuple(db)});
  }
  return updates;
}

// Ground answers of `atom` inside [0, kCheckHi), recomputed from the
// relation's own ground tuples: keep the tuples matching every constant,
// project onto the variables in first-occurrence order.
std::vector<lrpdb::GroundTuple> ExpectedAnswers(
    const lrpdb::GeneralizedRelation& relation,
    const lrpdb::PredicateAtom& atom) {
  std::vector<lrpdb::GroundTuple> out;
  for (const lrpdb::GroundTuple& g : relation.EnumerateGround(0, kCheckHi)) {
    lrpdb::GroundTuple answer;
    bool match = true;
    for (size_t i = 0; i < atom.temporal_args.size() && match; ++i) {
      const lrpdb::TemporalTerm& term = atom.temporal_args[i];
      if (term.is_constant()) {
        match = g.times[i] == term.offset;
      } else {
        answer.times.push_back(g.times[i]);
      }
    }
    for (size_t i = 0; i < atom.data_args.size() && match; ++i) {
      const lrpdb::DataTerm& term = atom.data_args[i];
      if (term.is_constant()) {
        match = g.data[i] == term.constant;
      } else {
        answer.data.push_back(g.data[i]);
      }
    }
    if (match) out.push_back(std::move(answer));
  }
  return SortedUnique(std::move(out));
}

// The maintained model must equal a from-scratch evaluation of the same
// EDB inside the window.
void CheckAgainstScratch(const Episode& e, SpanRecorder* spans, Results* out) {
  Scope span(spans, "verify");
  std::vector<Fact> edb = e.pinned;
  edb.insert(edb.end(), e.live.begin(), e.live.end());
  lrpdb::Database db;
  lrpdb::StatusOr<lrpdb::ParsedUnit> unit = lrpdb::Parse(Source(edb), &db);
  if (!unit.ok()) {
    out->Check(false, "parse final EDB: " + unit.status().ToString());
    return;
  }
  lrpdb::IncrementalEvaluator scratch(unit->program, &db);
  lrpdb::Status init = [&] {
    Scope init_span(spans, "Initialize");
    return scratch.Initialize();
  }();
  out->Check(init.ok(), "from-scratch Initialize: " + init.ToString());
  if (init.ok()) {
    out->Check(scratch.Fingerprint(0, kCheckHi) ==
                   e.inc->Fingerprint(0, kCheckHi),
               "maintained model differs from a from-scratch evaluation "
               "of the same EDB");
  }
}

}  // namespace

void RunLiveUpdates(const Options& o, Results* out) {
  SpanRecorder spans(o.trace);
  std::vector<double> setup_s, parse_ms;
  std::vector<double> add_ms, retract_ms, query_ms, compact_ms, cycle_ms;
  std::vector<double> by_parity[2];  // cycle times, untraced / traced
  RoundTotals totals;
  int64_t updates = 0, batch_in = 0, batch_out = 0;
  int64_t resume_rounds = 0, over_deleted = 0, rederived = 0;
  int64_t answer_tuples = 0, queries = 0, ops = 0, op = 0, cycles = 0;
  // Time inside the measured loop spent outside operations.
  double setup_total_s = 0, check_s = 0;

  // Runs one timed library call as operation `name`; returns its ms.
  auto timed = [&](const char* name, auto&& call) {
    spans.set_op(++op);
    const int64_t start = NowNs();
    {
      Scope span(&spans, name);
      call();
    }
    ++ops;
    return SecondsSince(start) * 1e3;
  };

  auto cycle = [&](int64_t n, Episode& e) {
    lrpdb::IncrementalEvaluator& inc = *e.inc;
    lrpdb::Database& db = *e.db;
    const lrpdb::Program& program = e.unit->program;
    double cycle_total = 0;
    const int64_t in0 = Counter("eval.batch.tuples_in");
    const int64_t out0 = Counter("eval.batch.tuples_out");

    std::vector<Fact> fresh = e.gen->Fresh(kAddFacts);
    std::vector<lrpdb::FactUpdate> add = Updates(fresh, &db);
    lrpdb::Status status;
    double ms = timed("AddFacts", [&] { status = inc.AddFacts(add); });
    add_ms.push_back(ms);
    cycle_total += ms;
    out->Attempt(status.ok() && inc.at_fixpoint(),
                 "AddFacts: " + status.ToString());
    ++updates;
    totals.Add(inc.Result());
    resume_rounds += inc.Result().iterations;
    e.live.insert(e.live.end(), fresh.begin(), fresh.end());

    for (int q = 0; q < kQueriesPerCycle; ++q) {
      lrpdb::PredicateAtom atom = NextQuery(queries, &e);
      std::optional<lrpdb::StatusOr<lrpdb::GeneralizedRelation>> result;
      ms = timed("QueryAtom", [&] {
        result.emplace(lrpdb::QueryAtom(program, db, inc.Result(), atom));
      });
      query_ms.push_back(ms);
      cycle_total += ms;
      const lrpdb::StatusOr<lrpdb::GeneralizedRelation>& answer = *result;
      out->Attempt(answer.ok(), "QueryAtom: " + answer.status().ToString());
      if (answer.ok()) {
        answer_tuples += static_cast<int64_t>(answer->size());
        if (queries % kQueryCheckEvery == 0) {
          const int64_t check_start = NowNs();
          const std::string& name =
              program.predicates().NameOf(atom.predicate);
          out->Check(SortedUnique(answer->EnumerateGround(0, kCheckHi)) ==
                         ExpectedAnswers(inc.Result().Relation(name), atom),
                     "QueryAtom answer differs from the model's ground "
                     "tuples for " + program.AtomToString(atom));
          check_s += SecondsSince(check_start);
        }
      }
      ++queries;
    }

    for (int size : kRetractPlan) {
      std::vector<Fact> victims(e.live.begin(), e.live.begin() + size);
      e.live.erase(e.live.begin(), e.live.begin() + size);
      std::vector<lrpdb::FactUpdate> retract = Updates(victims, &db);
      const int64_t misses0 = Counter("eval.inc.retract_misses");
      const int64_t fallbacks0 = Counter("eval.inc.fallbacks");
      const int64_t over0 = Counter("eval.inc.over_deleted");
      const int64_t re0 = Counter("eval.inc.rederived");
      ms = timed("RetractFacts", [&] { status = inc.RetractFacts(retract); });
      retract_ms.push_back(ms);
      cycle_total += ms;
      // Every victim is live, so each must match, and the DRed path (not
      // the full-recompute fallback) must have run.
      out->Attempt(status.ok() && inc.at_fixpoint() &&
                       Counter("eval.inc.retract_misses") == misses0 &&
                       Counter("eval.inc.fallbacks") == fallbacks0,
                   "RetractFacts: " + status.ToString() +
                       " (or a miss / fallback)");
      ++updates;
      totals.Add(inc.Result());
      over_deleted += Counter("eval.inc.over_deleted") - over0;
      rederived += Counter("eval.inc.rederived") - re0;
    }
    batch_in += Counter("eval.batch.tuples_in") - in0;
    batch_out += Counter("eval.batch.tuples_out") - out0;

    if (n % kCompactEvery == kCompactEvery - 1) {
      ms = timed("CompactRetracted", [&] { inc.CompactRetracted(); });
      compact_ms.push_back(ms);
      cycle_total += ms;
      out->Attempt(true, "CompactRetracted");
    }
    cycle_ms.push_back(cycle_total);
  };

  // Closed loop over episodes: for --seconds, and on until every reported
  // percentile has enough samples beyond it. With tracing on, every other
  // cycle records spans; the ratio of the two halves' median cycle times is
  // the tracing overhead.
  const int64_t need_adds = MinSamplesFor(90);
  const int64_t need_retracts = MinSamplesFor(90);
  const int64_t need_queries = MinSamplesFor(99);
  uint64_t episodes = 0;
  auto short_of_samples = [&] {
    return static_cast<int64_t>(add_ms.size()) < need_adds ||
           static_cast<int64_t>(retract_ms.size()) < need_retracts ||
           static_cast<int64_t>(query_ms.size()) < need_queries ||
           episodes < 3;
  };
  Episode e;
  InputProfile profile;
  ModelSize size;
  double prov_records = 0, prov_bytes = 0;
  const int64_t start = NowNs();
  while ((SecondsSince(start) < o.seconds || short_of_samples()) &&
         SecondsSince(start) < kMeasureCapSeconds) {
    // Each episode sets up every instance once, ending with its own, which
    // it keeps; setup_s is the median over all set-ups, so every run weighs
    // the instances alike whatever the number of episodes it fits.
    for (uint64_t k = 1; k <= kInstances; ++k) {
      e = Episode{};  // release the previous one before building anew
      const int64_t setup_start = NowNs();
      double parse = 0;
      lrpdb::Status status = [&] {
        Scope span(&spans, "setup");
        return SetUp(o.seed * kInstances + (episodes + k) % kInstances, &e,
                     &parse, &spans);
      }();
      if (!status.ok()) {
        out->Check(false, "set-up: " + status.ToString());
        return;
      }
      setup_s.push_back(SecondsSince(setup_start));
      parse_ms.push_back(parse);
      setup_total_s += setup_s.back();
    }
    ++episodes;
    profile = Profile(e.gen->base());

    for (int i = 0; i < kCyclesPerEpisode; ++i) {
      const size_t parity = static_cast<size_t>(cycles % 2);
      spans.set_enabled(o.trace && parity == 1);
      cycle(i, e);
      by_parity[parity].push_back(cycle_ms.back());
      ++cycles;
    }
    spans.set_enabled(o.trace);

    const int64_t check_start = NowNs();
    size = MeasureModel(*e.db, e.inc->Result());
    lrpdb::ProvenanceLog* prov = e.inc->provenance();
    prov_records = prov != nullptr ? static_cast<double>(prov->records()) : 0;
    prov_bytes = prov != nullptr ? static_cast<double>(prov->approx_bytes()) : 0;
    // Each cycle adds 64 new facts and retracts 64 live ones, so the
    // library's live EDB count must be back to its size after set-up.
    const int64_t live_facts = LiveFacts(*e.db);
    out->Check(live_facts == e.live_facts,
               "the live EDB did not stay flat: " +
                   std::to_string(live_facts) + " live facts, " +
                   std::to_string(e.live_facts) + " after set-up");
    check_s += SecondsSince(check_start);
  }
  const double busy_s = SecondsSince(start) - setup_total_s - check_s;
  const double peak_rss = PeakRssMb();
  // The from-scratch comparison costs about a second, so it runs once, on
  // the last episode's model.
  const int64_t check_start = NowNs();
  CheckAgainstScratch(e, &spans, out);
  check_s += SecondsSince(check_start);
  if (o.trace) {
    out->SetLayer("trace.overhead_ratio",
                  Median(by_parity[1]) / Median(by_parity[0]));
  }

  out->notes.push_back("input: " + profile.ToString());
  out->notes.push_back(
      "mix per cycle: 1 add of " + std::to_string(kAddFacts) + ", " +
      std::to_string(kQueriesPerCycle) + " queries, " +
      std::to_string(std::size(kRetractPlan)) + " retracts; " +
      std::to_string(episodes) + " episodes of " +
      std::to_string(kCyclesPerEpisode) + " cycles; store slots at an "
      "episode's end " + std::to_string(size.slots) + " (" +
      std::to_string(size.live) + " live)");
  if (totals.candidates > 0) {
    out->notes.push_back(
        "updates: " + std::to_string(totals.candidates) + " candidates, " +
        std::to_string(100.0 *
                       static_cast<double>(totals.candidates -
                                           totals.inserted) /
                       static_cast<double>(totals.candidates)) +
        "% subsumed");
  }

  out->Set("setup_s", Median(setup_s), "s",
           static_cast<int64_t>(setup_s.size()));
  out->Set("add_p50_ms", Median(add_ms), "ms",
           static_cast<int64_t>(add_ms.size()));
  out->Set("add_p90_ms", Percentile(add_ms, 90), "ms",
           static_cast<int64_t>(add_ms.size()));
  out->Set("retract_p50_ms", Median(retract_ms), "ms",
           static_cast<int64_t>(retract_ms.size()));
  out->Set("retract_p90_ms", Percentile(retract_ms, 90), "ms",
           static_cast<int64_t>(retract_ms.size()));
  out->Set("query_p50_ms", Median(query_ms), "ms",
           static_cast<int64_t>(query_ms.size()));
  out->Set("query_p99_ms", Percentile(query_ms, 99), "ms",
           static_cast<int64_t>(query_ms.size()));
  out->Set("ops_per_s", static_cast<double>(ops) / busy_s, "1/s", ops);
  out->Set("peak_rss_mb", peak_rss, "MiB");

  const double parse = Median(parse_ms);
  out->SetLayer("parser.parse_ms", parse);
  out->SetLayer("parser.facts_per_s",
                static_cast<double>(profile.facts) / (parse / 1e3));
  double update_ms = 0;
  for (double ms : add_ms) update_ms += ms;
  for (double ms : retract_ms) update_ms += ms;
  SetEvaluatorLayers(totals, updates, update_ms, batch_in, batch_out, out);
  out->SetLayer("tuple_store.model_bytes", static_cast<double>(size.bytes));
  const double adds = static_cast<double>(std::max<size_t>(add_ms.size(), 1));
  const double retracts =
      static_cast<double>(std::max<size_t>(retract_ms.size(), 1));
  out->SetLayer("incremental.resume_rounds_per_add", resume_rounds / adds);
  out->SetLayer("incremental.over_deleted_per_retract",
                over_deleted / retracts);
  out->SetLayer("incremental.rederived_per_retract", rederived / retracts);
  out->SetLayer("incremental.compact_ms", Median(compact_ms));
  out->SetLayer("incremental.live_slot_ratio",
                size.slots > 0 ? static_cast<double>(size.live) /
                                     static_cast<double>(size.slots)
                               : 0.0);
  out->SetLayer("provenance.records", prov_records);
  out->SetLayer("provenance.bytes", prov_bytes);
  out->SetLayer("provenance.bytes_per_model_byte",
                size.bytes > 0 ? prov_bytes / static_cast<double>(size.bytes)
                               : 0.0);
  out->SetLayer("query.answer_tuples_mean",
                static_cast<double>(answer_tuples) /
                    static_cast<double>(std::max<int64_t>(queries, 1)));
  out->SetLayer("oracle.check_ms", check_s * 1e3);
  WriteSpans(o, spans, out);
}

}  // namespace perfbench
