#include "perfbench/harness.h"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/gdb/database.h"
#include "src/obs/metrics.h"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kLayers = {
    {"parser.parse_ms", "ms"},
    {"parser.facts_per_s", "1/s"},
    {"normalizer.normalize_ms", "ms"},
    {"evaluator.rounds", "count"},
    {"evaluator.apply_ms", "ms"},
    {"evaluator.insert_ms", "ms"},
    {"evaluator.outside_rounds_ms", "ms"},
    {"evaluator.candidates", "count"},
    {"evaluator.keep_ratio", "ratio"},
    {"tuple_store.subsumption_candidates_per_candidate", "ratio"},
    {"tuple_store.scan_ratio", "ratio"},
    {"tuple_store.model_bytes", "bytes"},
    {"batch.tuples_in", "count"},
    {"batch.tuples_out", "count"},
    {"incremental.resume_rounds_per_add", "count"},
    {"incremental.over_deleted_per_retract", "count"},
    {"incremental.rederived_per_retract", "count"},
    {"incremental.compact_ms", "ms"},
    {"incremental.live_slot_ratio", "ratio"},
    {"provenance.records", "count"},
    {"provenance.bytes", "bytes"},
    {"provenance.bytes_per_model_byte", "ratio"},
    {"query.answer_tuples_mean", "count"},
    {"wal.appends", "count"},
    {"wal.appended_bytes", "bytes"},
    {"wal.replayed_records", "count"},
    {"snapshot.write_ms", "ms"},
    {"snapshot.written_bytes", "bytes"},
    {"store.compact_ms", "ms"},
    {"oracle.check_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

void Results::SetLayer(const std::string& name, double value) {
  for (const MetricDef& def : kLayers) {
    if (name == def.name) {
      layers[name] = Metric{value, def.unit, 1};
      return;
    }
  }
  std::fprintf(stderr, "unknown layer metric %s\n", name.c_str());
  std::abort();
}

void Results::Attempt(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    if (failures.size() < 5) failures.push_back(what);
  }
}

void Results::Check(bool ok, const std::string& what) {
  if (!ok) Attempt(false, what);
}


int64_t Counter(const char* name) {
  return lrpdb::obs::MetricsRegistry::Global().GetCounter(name)->value();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void RoundTotals::Add(const lrpdb::EvaluationResult& result) {
  for (const lrpdb::RoundStats& round : result.rounds) {
    ++rounds;
    candidates += round.candidates;
    inserted += round.inserted;
    apply_us += round.apply_us;
    insert_us += round.insert_us;
    store.Accumulate(round.store);
  }
  normalize_us += result.profile.normalize_us;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void SetEvaluatorLayers(const RoundTotals& t, int64_t ops, double ops_ms,
                        int64_t batch_in, int64_t batch_out, Results* out) {
  const double n = static_cast<double>(std::max<int64_t>(ops, 1));
  out->SetLayer("normalizer.normalize_ms", t.normalize_us / 1e3 / n);
  out->SetLayer("evaluator.rounds", t.rounds / n);
  out->SetLayer("evaluator.apply_ms", t.apply_us / 1e3 / n);
  out->SetLayer("evaluator.insert_ms", t.insert_us / 1e3 / n);
  out->SetLayer("evaluator.outside_rounds_ms",
                (ops_ms - (t.normalize_us + t.apply_us + t.insert_us) / 1e3) /
                    n);
  out->SetLayer("evaluator.candidates", t.candidates / n);
  out->SetLayer("evaluator.keep_ratio", Ratio(static_cast<double>(t.inserted),
                      static_cast<double>(t.candidates)));
  out->SetLayer("tuple_store.subsumption_candidates_per_candidate", Ratio(static_cast<double>(t.store.subsumption_candidates),
                      static_cast<double>(t.candidates)));
  out->SetLayer("tuple_store.scan_ratio", Ratio(static_cast<double>(t.store.tuples_scanned),
                      static_cast<double>(t.store.tuples_scanned +
                                          t.store.tuples_pruned)));
  out->SetLayer("batch.tuples_in", batch_in / n);
  out->SetLayer("batch.tuples_out", batch_out / n);
}

ModelSize MeasureModel(const lrpdb::Database& db,
                       const lrpdb::EvaluationResult& result) {
  ModelSize size;
  auto add = [&size](const lrpdb::TupleStore& store) {
    size.bytes += store.approx_bytes();
    size.live += static_cast<int64_t>(store.live_size());
    size.slots += static_cast<int64_t>(store.size());
  };
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    if (relation.ok()) add((*relation)->store());
  }
  for (const auto& [unused, relation] : result.idb) add(relation.store());
  return size;
}

int64_t LiveFacts(const lrpdb::Database& db) {
  int64_t live = 0;
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    if (relation.ok()) {
      live += static_cast<int64_t>((*relation)->store().live_size());
    }
  }
  return live;
}

std::vector<lrpdb::GroundTuple> SortedUnique(
    std::vector<lrpdb::GroundTuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return tuples;
}

GroundImage ImageOf(const lrpdb::EvaluationResult& result, int64_t lo,
                    int64_t hi) {
  GroundImage image;
  for (const auto& [name, relation] : result.idb) {
    image[name] = SortedUnique(relation.EnumerateGround(lo, hi));
  }
  return image;
}

int PrintReport(const Options& options, const Results& r) {
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  std::map<std::string, Metric> metrics = r.metrics;
  metrics["error_rate"] = Metric{
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0,
      "ratio", r.attempted};
  std::printf("end-to-end metrics:\n");
  for (const auto& [name, m] : metrics) {
    std::printf("  %-22s %14.6g %-6s n=%lld\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
  if (!options.metrics_json.empty()) {
    std::FILE* f = std::fopen(options.metrics_json.c_str(), "w");
    if (f == nullptr) {
      std::printf("FAILED: could not write %s\n",
                  options.metrics_json.c_str());
      return 1;
    }
    const char* sep = "{";
    for (const auto& [name, m] : metrics) {
      std::fprintf(f,
                   "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                   "\"samples\": %lld}",
                   sep, name.c_str(), m.value, m.unit.c_str(),
                   static_cast<long long>(m.samples));
      sep = ", ";
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  if (options.trace) {
    std::printf("per-layer metrics:\n");
    for (const auto& [name, m] : r.layers) {
      std::printf("  %-50s %14.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& f : r.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  // The result line. Values carry every digit (%.17g).
  const std::vector<MetricDef>& defs = options.trace ? kLayers : kEndToEnd;
  const std::map<std::string, Metric>& source =
      options.trace ? r.layers : r.metrics;
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = source.find(defs[i].name);
    double v = 0;
    if (it != source.end()) {
      v = it->second.value;
    } else if (!options.trace) {
      std::printf("FAILED: metric %s was not measured\n", defs[i].name);
      return 1;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += std::string("\"") + defs[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct && r.attempted > 0 ? 0 : 1;
}

void WriteSpans(const Options& options, const SpanRecorder& spans,
                Results* out) {
  if (!options.trace) return;
  const std::string path = options.work_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  out->Check(spans.WriteJsonLines(path), "could not write " + path);
  out->notes.push_back("spans: " + std::to_string(spans.spans().size()) +
                       " written to " + path);
  out->notes.push_back("span                        count     total_ms      "
                       "self_ms");
  for (const auto& [name, t] : TotalsByName(spans.spans())) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-24s %9lld %12.3f %12.3f",
                  name.c_str(), static_cast<long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6);
    out->notes.push_back(line);
  }
}

}  // namespace perfbench
