// lrpdbsh: a small command-line driver for lrpdb program files.
//
// Usage:
//   lrpdbsh <program-file> [--window LO HI] [--fo "<formula>"] [--trace]
//           [--export] [--why "<tuple>"] [--dot <file>] [--repl]
//           [--save <dir>] [--load <dir>]
//
// --save persists the database plus the computed model as a checksummed
// snapshot in <dir> (src/storage format); --load recovers a database from
// <dir> (newest valid snapshot + WAL replay) before the program is parsed,
// reporting corrupt input as a clean error status instead of dying
// mid-stream. With --load and no program file, the program is empty.
//
// --export prints the computed model as .decl/.fact statements (the
// "convert once and for all" workflow: re-load the closed form later as a
// plain extensional database, no re-derivation needed).
//
// --why asks for the derivation of a tuple (see `explain why` below) right
// after evaluation; --dot additionally writes its derivation graph as
// Graphviz DOT to a file. --repl drops into an interactive loop after the
// one-shot output:
//
//   explain why p#3            derivation tree of entry 3 of relation p:
//                              the one derivation that inserted each
//                              tuple (a witness, not every derivation)
//   explain why p(26, "a")     ... of every stored tuple containing that
//                              ground fact (times first, then data)
//   :dot p#3 [file]            derivation graph as Graphviz DOT
//   :metrics                   MetricsRegistry snapshot
//   :explain                   the evaluation's per-rule EXPLAIN profile
//   :add p(24n+2, "a").        insert a fact (surface syntax, sans .fact)
//                              and incrementally maintain the model
//   :retract p(24n+2, "a").    retract an exact stored fact, DRed-style
//   :save <dir>                persist database + model as a snapshot
//   :load <dir>                recover a saved image and summarize it
//   :quit                      leave
//
// :add / :retract lazily wrap the session in an IncrementalEvaluator
// (src/core/incremental.h): the first update pays one full evaluation to
// seed the maintained model, later updates resume the semi-naive loop
// instead of refixpointing.
//
// Why-provenance recording is enabled whenever --why, --dot, or --repl is
// given; the printed closed form is the same with or without it.
//
// Reads a program in the surface syntax (declarations, generalized facts,
// rules, `?-` queries), evaluates the deductive layer bottom-up, prints the
// closed form of every derived relation, answers the `?-` queries, and
// optionally evaluates one first-order formula over the database and the
// computed model.
//
// With no program file, runs the built-in demo (the paper's Example 4.1).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/evaluator.h"
#include "src/core/incremental.h"
#include "src/core/provenance.h"
#include "src/fo/fo.h"
#include "src/gdb/serialize.h"
#include "src/obs/metrics.h"
#include "src/parser/parser.h"
#include "src/storage/snapshot.h"
#include "src/storage/store.h"

namespace {

constexpr char kDemo[] = R"(
  .decl course(time, time, data)
  .decl problems(time, time, data)
  .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2.
  problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
  problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
  ?- problems(t1, t2, "database").
)";

int Fail(const lrpdb::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintRelation(const char* name, const lrpdb::GeneralizedRelation& r,
                   const lrpdb::Database& db, int64_t lo, int64_t hi) {
  std::printf("%s (%zu generalized tuples):\n%s", name, r.live_size(),
              r.ToString(&db.interner()).c_str());
  auto ground = r.EnumerateGround(lo, hi);
  std::printf("  ground tuples in [%ld, %ld): %zu\n",
              static_cast<long>(lo), static_cast<long>(hi), ground.size());
  size_t shown = 0;
  for (const lrpdb::GroundTuple& t : ground) {
    if (++shown > 10) {
      std::printf("    ...\n");
      break;
    }
    std::string row = "    (";
    for (size_t i = 0; i < t.times.size(); ++i) {
      if (i > 0) row += ", ";
      row += std::to_string(t.times[i]);
    }
    for (size_t i = 0; i < t.data.size(); ++i) {
      if (!t.times.empty() || i > 0) row += ", ";
      row += db.interner().NameOf(t.data[i]);
    }
    row += ")";
    std::printf("%s\n", row.c_str());
  }
  std::printf("\n");
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Everything `explain why` / `:dot` need to resolve and render tuples.
struct ProvSession {
  const lrpdb::Database* db = nullptr;
  const lrpdb::EvaluationResult* result = nullptr;
  lrpdb::ProvenanceLog* log = nullptr;

  const lrpdb::GeneralizedRelation* RelationOf(const std::string& name) const {
    auto it = result->idb.find(name);
    if (it != result->idb.end()) return &it->second;
    auto rel = db->Relation(name);
    return rel.ok() ? *rel : nullptr;
  }

  std::string TupleLabel(const std::string& relation,
                         lrpdb::EntryId entry) const {
    const lrpdb::GeneralizedRelation* rel = RelationOf(relation);
    if (rel == nullptr || entry >= rel->size()) return "(unknown entry)";
    if (!rel->is_live(entry)) return "(retracted entry)";
    return Trim(rel->tuple(entry).ToString(&db->interner()));
  }

  std::string RuleLabel(int32_t rule) const {
    const auto& rules = result->profile.rules;
    if (rule < 0 || static_cast<size_t>(rule) >= rules.size()) {
      return "base fact";
    }
    return rules[rule].rule;
  }
};

// Parses "pred#3", "pred(26, \"a\")", or bare "pred", resolving the entry
// ids to explain. Ground-point specs list times first, then data values
// (quotes optional), and match every stored tuple whose ground set contains
// the point. Only live entries resolve: a retracted (tombstoned) slot keeps
// its id until compaction but is no longer part of the model.
bool ResolveTupleSpec(const ProvSession& s, const std::string& spec,
                      std::string* name, std::vector<lrpdb::EntryId>* entries,
                      std::string* error) {
  const std::string text = Trim(spec);
  size_t hash = text.find('#');
  size_t paren = text.find('(');
  if (hash != std::string::npos) {
    *name = Trim(text.substr(0, hash));
    entries->push_back(
        static_cast<lrpdb::EntryId>(std::atoll(text.c_str() + hash + 1)));
    const lrpdb::GeneralizedRelation* rel = s.RelationOf(*name);
    if (rel == nullptr) {
      *error = "unknown relation '" + *name + "'";
      return false;
    }
    if (entries->back() >= rel->size()) {
      *error = *name + " has only " + std::to_string(rel->size()) +
               " entries";
      return false;
    }
    if (!rel->is_live(entries->back())) {
      *error = "entry " + std::to_string(entries->back()) + " was retracted";
      return false;
    }
    return true;
  }
  if (paren == std::string::npos) {
    *name = text;
    const lrpdb::GeneralizedRelation* rel = s.RelationOf(*name);
    if (rel == nullptr) {
      *error = "unknown relation '" + *name + "'";
      return false;
    }
    for (lrpdb::EntryId id : rel->live_ids()) entries->push_back(id);
    if (entries->empty()) {
      *error = *name + " has no live entries";
      return false;
    }
    return true;
  }
  *name = Trim(text.substr(0, paren));
  const lrpdb::GeneralizedRelation* rel = s.RelationOf(*name);
  if (rel == nullptr) {
    *error = "unknown relation '" + *name + "'";
    return false;
  }
  size_t close = text.rfind(')');
  if (close == std::string::npos || close < paren) {
    *error = "missing ')' in tuple spec";
    return false;
  }
  std::vector<std::string> args;
  std::string arg;
  for (size_t i = paren + 1; i < close; ++i) {
    if (text[i] == ',') {
      args.push_back(Trim(arg));
      arg.clear();
    } else {
      arg += text[i];
    }
  }
  if (!Trim(arg).empty()) args.push_back(Trim(arg));
  const lrpdb::RelationSchema schema = rel->schema();
  if (static_cast<int>(args.size()) !=
      schema.temporal_arity + schema.data_arity) {
    *error = *name + " expects " + std::to_string(schema.temporal_arity) +
             " time + " + std::to_string(schema.data_arity) + " data args";
    return false;
  }
  std::vector<int64_t> times;
  std::vector<lrpdb::DataValue> data;
  for (int k = 0; k < schema.temporal_arity; ++k) {
    times.push_back(std::atoll(args[k].c_str()));
  }
  for (int k = 0; k < schema.data_arity; ++k) {
    std::string v = args[schema.temporal_arity + k];
    if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
      v = v.substr(1, v.size() - 2);
    }
    lrpdb::SymbolId id = s.db->interner().Find(v);
    if (id < 0) {
      *error = "unknown data constant '" + v + "'";
      return false;
    }
    data.push_back(id);
  }
  for (lrpdb::EntryId id : rel->live_ids()) {
    if (rel->tuple(id).ContainsGround(times, data)) entries->push_back(id);
  }
  if (entries->empty()) {
    *error = "no stored tuple of " + *name + " contains that ground fact";
    return false;
  }
  return true;
}

int ExplainWhy(const ProvSession& s, const std::string& spec) {
  std::string name;
  std::string error;
  std::vector<lrpdb::EntryId> entries;
  if (!ResolveTupleSpec(s, spec, &name, &entries, &error)) {
    std::printf("explain why: %s\n", error.c_str());
    return 1;
  }
  std::optional<lrpdb::ProvRelationId> rel = s.log->FindRelation(name);
  if (!rel.has_value()) {
    std::printf("no provenance recorded for relation '%s'\n", name.c_str());
    return 1;
  }
  constexpr size_t kMaxTrees = 5;
  for (size_t i = 0; i < entries.size() && i < kMaxTrees; ++i) {
    auto graph = s.log->WhyProvenance({*rel, entries[i]});
    if (!graph.ok()) {
      std::printf("explain why: %s\n", graph.status().ToString().c_str());
      return 1;
    }
    std::printf("%s",
                s.log->RenderTree(*graph,
                                  [&](const std::string& r, lrpdb::EntryId e) {
                                    return s.TupleLabel(r, e);
                                  },
                                  [&](int32_t r) { return s.RuleLabel(r); })
                    .c_str());
  }
  if (entries.size() > kMaxTrees) {
    std::printf("(%zu more matching entries not shown)\n",
                entries.size() - kMaxTrees);
  }
  return 0;
}

int ExportDot(const ProvSession& s, const std::string& spec,
              const std::string& path) {
  std::string name;
  std::string error;
  std::vector<lrpdb::EntryId> entries;
  if (!ResolveTupleSpec(s, spec, &name, &entries, &error)) {
    std::printf("dot: %s\n", error.c_str());
    return 1;
  }
  std::optional<lrpdb::ProvRelationId> rel = s.log->FindRelation(name);
  if (!rel.has_value()) {
    std::printf("dot: no provenance recorded for relation '%s'\n",
                name.c_str());
    return 1;
  }
  auto graph = s.log->WhyProvenance({*rel, entries.front()});
  if (!graph.ok()) {
    std::printf("dot: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::string dot =
      s.log->ToDot(*graph,
                   [&](const std::string& r, lrpdb::EntryId e) {
                     return s.TupleLabel(r, e);
                   },
                   [&](int32_t r) { return s.RuleLabel(r); });
  if (path.empty()) {
    std::printf("%s", dot.c_str());
    return 0;
  }
  std::ofstream out(path);
  if (!out) {
    std::printf("dot: cannot write %s\n", path.c_str());
    return 1;
  }
  out << dot;
  std::printf("wrote %s (%zu nodes)\n", path.c_str(), graph->nodes.size());
  return 0;
}

void PrintMetrics() {
  lrpdb::obs::MetricsSnapshot snap =
      lrpdb::obs::MetricsRegistry::Global().Snapshot();
  std::printf("== metrics ==\n");
  for (const auto& [name, value] : snap.counters) {
    std::printf("  counter   %-36s %ld\n", name.c_str(),
                static_cast<long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    std::printf("  gauge     %-36s %ld\n", name.c_str(),
                static_cast<long>(value));
  }
  for (const auto& [name, h] : snap.histograms) {
    std::printf("  histogram %-36s count=%ld sum=%ld\n", name.c_str(),
                static_cast<long>(h.count), static_cast<long>(h.sum));
  }
  if (snap.counters.empty() && snap.gauges.empty() &&
      snap.histograms.empty()) {
    std::printf("  (no metrics registered; built with LRPDB_NO_METRICS?)\n");
  }
}

// Copies the extensional database plus the computed model into one image
// database ready for snapshotting. For a predicate that is both extensional
// and derived, the derived relation wins (it holds the seeded facts plus
// everything the rules added).
lrpdb::Status BuildImage(
    const lrpdb::Database& db,
    const std::map<std::string, lrpdb::GeneralizedRelation>* idb,
    lrpdb::Database* out) {
  out->interner() = db.interner();
  auto add = [&](const std::string& name,
                 const lrpdb::GeneralizedRelation& rel) -> lrpdb::Status {
    LRPDB_RETURN_IF_ERROR(out->Declare(name, rel.schema()));
    LRPDB_ASSIGN_OR_RETURN(lrpdb::GeneralizedRelation * dst,
                           out->MutableRelation(name));
    // Live entries only; each generation bound becomes the number of live
    // entries below it.
    size_t delta_lo = 0;
    size_t delta_hi = 0;
    for (lrpdb::EntryId id : rel.live_ids()) {
      LRPDB_RETURN_IF_ERROR(dst->RestoreEntry(rel.tuple(id)));
      delta_lo += id < rel.delta_lo();
      delta_hi += id < rel.delta_hi();
    }
    return dst->RestoreGenerations(delta_lo, delta_hi);
  };
  for (const std::string& name : db.RelationNames()) {
    if (idb != nullptr && idb->count(name) > 0) continue;
    LRPDB_ASSIGN_OR_RETURN(const lrpdb::GeneralizedRelation* rel,
                           db.Relation(name));
    LRPDB_RETURN_IF_ERROR(add(name, *rel));
  }
  if (idb != nullptr) {
    for (const auto& [name, rel] : *idb) {
      LRPDB_RETURN_IF_ERROR(add(name, rel));
    }
  }
  return lrpdb::OkStatus();
}

// Writes the image as snapshot seq 0 in `dir`; a later --load (or
// PersistentStore::Open) recovers it and continues the WAL from seq 1.
lrpdb::Status SaveImage(
    const std::string& dir, const lrpdb::Database& db,
    const std::map<std::string, lrpdb::GeneralizedRelation>* idb) {
  lrpdb::Database image;
  LRPDB_RETURN_IF_ERROR(BuildImage(db, idb, &image));
  LRPDB_RETURN_IF_ERROR(lrpdb::CreateDir(dir));
  return lrpdb::storage::WriteSnapshotFile(
      dir + "/" + lrpdb::storage::SeqFileName("snapshot-", 0), 0, image,
      /*sync=*/true);
}

// Recovers `dir` into a fresh database: newest valid snapshot, WAL replay,
// torn tails truncated. Every corruption mode comes back as a Status.
lrpdb::StatusOr<lrpdb::storage::RecoveryInfo> LoadImage(const std::string& dir,
                                                        lrpdb::Database* db) {
  LRPDB_ASSIGN_OR_RETURN(lrpdb::storage::PersistentStore store,
                         lrpdb::storage::PersistentStore::Open(dir, db));
  lrpdb::storage::RecoveryInfo info = store.recovery_info();
  LRPDB_RETURN_IF_ERROR(store.Close());
  return info;
}

void ReplSave(const ProvSession& s, const std::string& dir) {
  lrpdb::Status status = SaveImage(dir, *s.db, &s.result->idb);
  if (!status.ok()) {
    std::printf(":save failed: %s\n", status.ToString().c_str());
    return;
  }
  std::printf("saved database + model to %s\n", dir.c_str());
}

void ReplLoad(const std::string& dir) {
  lrpdb::Database loaded;
  auto info = LoadImage(dir, &loaded);
  if (!info.ok()) {
    std::printf(":load failed: %s\n", info.status().ToString().c_str());
    return;
  }
  std::printf(
      "loaded %s: %zu relations, snapshot seq %llu, %llu WAL records "
      "replayed\n",
      dir.c_str(), loaded.RelationNames().size(),
      static_cast<unsigned long long>(info->snapshot_seq),
      static_cast<unsigned long long>(info->replayed_records));
  for (const std::string& name : loaded.RelationNames()) {
    const lrpdb::GeneralizedRelation* rel = *loaded.Relation(name);
    std::printf("  %s: %zu generalized tuples\n", name.c_str(),
                rel->live_size());
  }
}

// Parses one fact in the surface syntax (the text after :add / :retract,
// without the leading `.fact`) into FactUpdates against `db`. The fact is
// parsed into a scratch database seeded with db's interner and schemas, so
// a malformed fact never touches the live state; data constants are then
// re-interned through `db`.
lrpdb::StatusOr<std::vector<lrpdb::FactUpdate>> ParseFactUpdates(
    const std::string& text, lrpdb::Database* db) {
  lrpdb::Database scratch;
  scratch.interner() = db->interner();
  // The parser only honors declarations in its own source, so prepend
  // every live relation's .decl before the fact.
  std::string source;
  for (const std::string& name : db->RelationNames()) {
    auto schema = db->SchemaOf(name);
    if (schema.ok()) source += lrpdb::SerializeDeclaration(name, *schema);
  }
  source += ".fact " + text;
  if (source.back() != '.') source += '.';
  LRPDB_ASSIGN_OR_RETURN(auto unit, lrpdb::Parse(source, &scratch));
  (void)unit;
  std::vector<lrpdb::FactUpdate> updates;
  for (const std::string& name : scratch.RelationNames()) {
    auto rel = scratch.Relation(name);
    if (!rel.ok()) continue;
    for (lrpdb::EntryId id : (*rel)->live_ids()) {
      const lrpdb::TupleView t = (*rel)->tuple(id);
      std::vector<lrpdb::DataValue> data;
      data.reserve(t.data().size());
      for (lrpdb::DataValue d : t.data()) {
        data.push_back(db->Constant(scratch.interner().NameOf(d)));
      }
      updates.push_back({name, lrpdb::GeneralizedTuple(t.lrps().ToVector(),
                                                       std::move(data),
                                                       t.constraint())});
    }
  }
  if (updates.empty()) {
    return lrpdb::InvalidArgumentError("no facts in '" + text + "'");
  }
  return updates;
}

// The REPL's incremental-update session, created lazily by the first :add
// or :retract (paying one full evaluation to seed the maintained model).
// Once live, the ProvSession is re-pointed at the maintained model and its
// provenance log so explain why / :save reflect every update.
struct IncSession {
  std::unique_ptr<lrpdb::IncrementalEvaluator> inc;

  bool Ensure(ProvSession* s, const lrpdb::Program& program,
              lrpdb::Database* db, const lrpdb::EvaluationOptions& options) {
    if (inc != nullptr) return true;
    auto fresh = std::make_unique<lrpdb::IncrementalEvaluator>(program, db,
                                                               options);
    lrpdb::Status status = fresh->Initialize();
    if (!status.ok()) {
      std::printf("incremental session failed: %s\n",
                  status.ToString().c_str());
      return false;
    }
    inc = std::move(fresh);
    s->result = &inc->Result();
    if (inc->provenance() != nullptr) s->log = inc->provenance();
    return true;
  }

  void Update(bool add, const std::string& text, ProvSession* s,
              const lrpdb::Program& program, lrpdb::Database* db,
              const lrpdb::EvaluationOptions& options) {
    if (!Ensure(s, program, db, options)) return;
    auto updates = ParseFactUpdates(text, db);
    if (!updates.ok()) {
      std::printf("%s: %s\n", add ? ":add" : ":retract",
                  updates.status().ToString().c_str());
      return;
    }
    lrpdb::Status status =
        add ? inc->AddFacts(*updates) : inc->RetractFacts(*updates);
    if (!status.ok()) {
      std::printf("%s failed: %s\n", add ? ":add" : ":retract",
                  status.ToString().c_str());
      return;
    }
    std::printf("%s %zu fact(s); model maintained (%d resume iterations, "
                "fixpoint: %s)\n",
                add ? "added" : "retracted", updates->size(),
                inc->Result().iterations,
                inc->at_fixpoint() ? "yes" : "NO");
  }
};

void Repl(ProvSession s, const lrpdb::Program& program, lrpdb::Database* db,
          const lrpdb::EvaluationOptions& options) {
  std::printf(
      "lrpdbsh repl -- `explain why p#0`, `explain why p(26, \"a\")`, "
      "`:dot p#0 [file]`, `:metrics`, `:explain`, `:add <fact>`, "
      "`:retract <fact>`, `:save <dir>`, `:load <dir>`, `:quit`\n");
  IncSession inc;
  std::string line;
  while (true) {
    std::printf("lrpdb> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    line = Trim(line);
    if (line.empty()) continue;
    if (line == ":quit" || line == ":q" || line == "quit" || line == "exit") {
      break;
    }
    if (line == ":metrics") {
      PrintMetrics();
      continue;
    }
    if (line == ":explain") {
      std::printf("%s", s.result->Explain().c_str());
      continue;
    }
    if (line.rfind(":save", 0) == 0 || line.rfind(":load", 0) == 0) {
      std::string dir = Trim(line.substr(5));
      if (dir.empty()) {
        std::printf("%s needs a directory argument\n",
                    line.substr(0, 5).c_str());
      } else if (line[1] == 's') {
        ReplSave(s, dir);
      } else {
        ReplLoad(dir);
      }
      continue;
    }
    if (line.rfind(":add", 0) == 0 || line.rfind(":retract", 0) == 0) {
      bool add = line[1] == 'a';
      std::string text = Trim(line.substr(add ? 4 : 8));
      if (text.empty()) {
        std::printf("%s needs a fact, e.g. %s p(24n+2, \"a\").\n",
                    add ? ":add" : ":retract", add ? ":add" : ":retract");
      } else {
        inc.Update(add, text, &s, program, db, options);
      }
      continue;
    }
    if (line.rfind(":dot", 0) == 0) {
      std::istringstream in(line.substr(4));
      std::string spec;
      std::string path;
      in >> spec >> path;
      if (spec.empty()) {
        std::printf(":dot needs a tuple spec, e.g. :dot p#0 why.dot\n");
      } else {
        ExportDot(s, spec, path);
      }
      continue;
    }
    std::string spec;
    if (line.rfind("explain why ", 0) == 0 ||
        line.rfind("EXPLAIN WHY ", 0) == 0) {
      spec = line.substr(12);
    } else if (line.rfind("why ", 0) == 0) {
      spec = line.substr(4);
    }
    if (!spec.empty()) {
      ExplainWhy(s, spec);
      continue;
    }
    std::printf(
        "unknown command; try `explain why <tuple>`, `:dot`, `:metrics`, "
        "`:explain`, `:add`, `:retract`, or `:quit`\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string source = kDemo;
  std::string fo_formula;
  std::string why_spec;
  std::string dot_path;
  int64_t window_lo = 0;
  int64_t window_hi = 400;
  bool trace = false;
  bool export_model = false;
  bool repl = false;
  bool have_program_file = false;
  std::string save_dir;
  std::string load_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--window") == 0 && i + 2 < argc) {
      window_lo = std::atoll(argv[++i]);
      window_hi = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--fo") == 0 && i + 1 < argc) {
      fo_formula = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--export") == 0) {
      export_model = true;
    } else if (std::strcmp(argv[i], "--why") == 0 && i + 1 < argc) {
      why_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--dot") == 0 && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repl") == 0) {
      repl = true;
    } else if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      save_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--load") == 0 && i + 1 < argc) {
      load_dir = argv[++i];
    } else {
      std::ifstream file(argv[i]);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      source = buffer.str();
      have_program_file = true;
    }
  }
  // With a loaded image and no program, run the (empty) program over it
  // rather than re-seeding the demo facts.
  if (!load_dir.empty() && !have_program_file) source = "";

  lrpdb::Database db;
  if (!load_dir.empty()) {
    auto info = LoadImage(load_dir, &db);
    if (!info.ok()) return Fail(info.status());
    std::printf("== loaded %s ==\n", load_dir.c_str());
    std::printf(
        "snapshot seq %llu, %llu WAL records replayed, %llu torn bytes "
        "truncated\n",
        static_cast<unsigned long long>(info->snapshot_seq),
        static_cast<unsigned long long>(info->replayed_records),
        static_cast<unsigned long long>(info->truncated_tail_bytes));
    if (info->corrupt_snapshots_skipped > 0) {
      std::printf("warning: %llu corrupt snapshot(s) skipped during recovery\n",
                  static_cast<unsigned long long>(
                      info->corrupt_snapshots_skipped));
    }
    for (const std::string& name : db.RelationNames()) {
      PrintRelation(name.c_str(), **db.Relation(name), db, window_lo,
                    window_hi);
    }
  }
  auto unit = lrpdb::Parse(source, &db);
  if (!unit.ok()) return Fail(unit.status());

  const bool want_provenance = repl || !why_spec.empty();
  lrpdb::ProvenanceLog provenance;
  lrpdb::EvaluationOptions options;
  options.record_trace = trace;
  if (want_provenance) options.provenance = &provenance;
  auto result = lrpdb::Evaluate(unit->program, db, options);
  if (!result.ok()) return Fail(result.status());

  std::printf("== evaluation ==\n");
  std::printf("iterations: %d, fixpoint: %s%s%s\n\n", result->iterations,
              result->reached_fixpoint ? "yes" : "NO",
              result->gave_up_reason.empty() ? "" : " -- ",
              result->gave_up_reason.c_str());
  if (trace) {
    for (const lrpdb::TraceEntry& entry : result->trace) {
      std::printf("  it=%d %s %s %s\n", entry.iteration,
                  entry.predicate.c_str(),
                  entry.tuple.ToString(&db.interner()).c_str(),
                  entry.inserted ? "+" : "(subsumed)");
    }
    std::printf("\n");
  }

  std::printf("== derived relations (closed form) ==\n");
  for (const auto& [name, relation] : result->idb) {
    PrintRelation(name.c_str(), relation, db, window_lo, window_hi);
  }

  if (export_model) {
    std::printf("== exported model (.decl/.fact, reload with lrpdbsh) ==\n");
    for (const auto& [name, relation] : result->idb) {
      std::printf("%s", lrpdb::SerializeDeclaration(name, relation.schema())
                            .c_str());
    }
    for (const auto& [name, relation] : result->idb) {
      std::printf("%s",
                  lrpdb::SerializeRelationAsFacts(name, relation,
                                                  db.interner())
                      .c_str());
    }
    std::printf("\n");
  }

  for (size_t q = 0; q < unit->queries.size(); ++q) {
    auto answers =
        lrpdb::QueryAtom(unit->program, db, *result, unit->queries[q]);
    if (!answers.ok()) return Fail(answers.status());
    std::printf("== query %zu answers ==\n", q + 1);
    PrintRelation("answers", *answers, db, window_lo, window_hi);
  }

  if (!fo_formula.empty()) {
    // Make the derived relations visible to the FO layer.
    std::map<std::string, lrpdb::RelationSchema> schemas;
    for (const auto& [name, relation] : result->idb) {
      schemas.emplace(name, relation.schema());
    }
    auto query = lrpdb::ParseFoQuery(fo_formula, &db, &schemas);
    if (!query.ok()) return Fail(query.status());
    lrpdb::FoOptions fo_options;
    fo_options.extra_relations = &result->idb;
    auto fo_result = lrpdb::EvaluateFoQuery(*query, db, fo_options);
    if (!fo_result.ok()) return Fail(fo_result.status());
    std::printf("== FO query ==\n%s\n", fo_formula.c_str());
    std::string header;
    for (const std::string& v : fo_result->temporal_vars) {
      header += v + " ";
    }
    for (const std::string& v : fo_result->data_vars) header += v + " ";
    std::printf("columns: %s\n", header.empty() ? "(none: yes/no)"
                                                : header.c_str());
    if (fo_result->relation.schema().temporal_arity == 0 &&
        fo_result->relation.schema().data_arity == 0) {
      std::printf("answer: %s\n",
                  fo_result->relation.empty() ? "false" : "true");
    } else {
      PrintRelation("answers", fo_result->relation, db, window_lo,
                    window_hi);
    }
  }

  if (!save_dir.empty()) {
    lrpdb::Status status = SaveImage(save_dir, db, &result->idb);
    if (!status.ok()) return Fail(status);
    std::printf("== saved database + model to %s ==\n\n", save_dir.c_str());
  }

  if (want_provenance) {
    ProvSession session{&db, &*result, &provenance};
    if (!why_spec.empty()) {
      std::printf("== explain why %s ==\n", why_spec.c_str());
      int rc = ExplainWhy(session, why_spec);
      if (rc == 0 && !dot_path.empty()) ExportDot(session, why_spec, dot_path);
    }
    if (repl) Repl(session, unit->program, &db, options);
  }
  return 0;
}
