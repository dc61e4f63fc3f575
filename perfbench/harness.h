// Shared plumbing of the three workloads: options, the result record every
// workload fills, library counter reads, model measurements and the report
// printer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/common/status.h"
#include "src/core/evaluator.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory for the run's own files (store directories, span dumps).
  std::string work_dir = ".";
  // When set, every end-to-end metric (gated or not) is also written there
  // as one JSON object: {"name": {"value", "unit", "samples"}, ...}.
  std::string metrics_json;
};

struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 0;  // samples behind the value (1 for a single reading)
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metrics of the result line, in BENCHMARK.json order: the end-to-end
// metrics every workload reports (trace off) and the per-layer metrics
// (trace on).
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kLayers;

// Everything one run reports. Workloads fill `metrics` with the uniform
// end-to-end metrics plus the named ones of their own kind, and `layers`
// with the per-layer metrics of the layers they enter; a layer a workload
// never enters reads 0.
class Results {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
  // `name` must be one of kLayers; the unit comes from there.
  void SetLayer(const std::string& name, double value);

  // Counts one attempted operation; `ok == false` counts it as failed and
  // records `what` (the first few failures are printed).
  void Attempt(bool ok, const std::string& what);
  void AttemptOk(const lrpdb::Status& status, const std::string& what) {
    Attempt(status.ok(), what + ": " + status.ToString());
  }
  // A correctness check outside the timed operations. A failed check is a
  // wrong answer: it counts as one attempted and one failed operation, so
  // error_rate (failed / attempted) covers failed calls and wrong answers.
  void Check(bool ok, const std::string& what);

  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> layers;
  std::vector<std::string> notes;  // input properties, printed verbatim
};

// A measured loop keeps going past --seconds until its percentiles have
// enough samples, but never past this many seconds.
inline constexpr double kMeasureCapSeconds = 100;

// Seconds since `start_ns`.
inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

// Current value of a library counter (0 if never registered). Reading a
// counter is one relaxed load, cheap enough around every call.
int64_t Counter(const char* name);

// Peak resident set size of this process, in MiB (VmHWM).
double PeakRssMb();

// Sums over the per-round stats of one evaluation (or resumed update).
struct RoundTotals {
  int64_t rounds = 0;
  int64_t candidates = 0;
  int64_t inserted = 0;
  int64_t apply_us = 0;
  int64_t insert_us = 0;
  int64_t normalize_us = 0;
  lrpdb::StoreStats store;

  void Add(const lrpdb::EvaluationResult& result);
};

// Writes the evaluator and tuple-store layer metrics for `ops` operations
// that took `ops_ms` in all; the time not spent normalizing or in rounds is
// evaluator.outside_rounds_ms (result compaction, over-delete, EDB scans).
void SetEvaluatorLayers(const RoundTotals& totals, int64_t ops, double ops_ms,
                        int64_t batch_in, int64_t batch_out, Results* out);

// Bytes of every store, EDB and IDB, and their live and total slot counts.
struct ModelSize {
  int64_t bytes = 0;
  int64_t live = 0;
  int64_t slots = 0;
};
ModelSize MeasureModel(const lrpdb::Database& db,
                       const lrpdb::EvaluationResult& result);

// Live (not tombstoned) facts over every EDB store of `db`.
int64_t LiveFacts(const lrpdb::Database& db);

std::vector<lrpdb::GroundTuple> SortedUnique(
    std::vector<lrpdb::GroundTuple> tuples);

// Canonical ground image of the IDB inside [lo, hi): per relation, the
// sorted distinct ground tuples. Equal images mean equal models there.
using GroundImage =
    std::map<std::string, std::vector<lrpdb::GroundTuple>>;
GroundImage ImageOf(const lrpdb::EvaluationResult& result, int64_t lo,
                    int64_t hi);

// With tracing on: writes the spans to the work directory and adds their
// per-name totals and self times to the report.
void WriteSpans(const Options& options, const SpanRecorder& spans,
                Results* out);

// Prints the human-readable report and, as the last line, the JSON result.
// Returns the process exit code.
int PrintReport(const Options& options, const Results& results);

// Workload entry points (one per file).
void RunClosedFormEval(const Options& options, Results* out);
void RunLiveUpdates(const Options& options, Results* out);
void RunDurableIngest(const Options& options, Results* out);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
