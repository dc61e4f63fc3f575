// Zero-dependency observability substrate: named counters, gauges, and
// fixed-bucket latency histograms behind a process-global registry.
//
// Design constraints (DESIGN.md §"Observability"):
//  * Lock-free fast path. Call sites obtain a stable handle once through a
//    function-local static (the LRPDB_* macros below) and thereafter issue a
//    single relaxed atomic add per event; the registry mutex is taken only
//    at first registration and at snapshot time.
//  * Compiled out under LRPDB_NO_METRICS. The macros collapse to no-ops and
//    the compiler drops the instrumented code entirely, so the uninstrumented
//    build pays nothing (acceptance: bench_e2/128 regresses < 2%).
//  * Thread-safe. Handles are immutable after registration; all mutation is
//    on std::atomic fields. tests/obs_test.cc hammers one registry from many
//    threads and CI runs the suite under TSan (LRPDB_SANITIZE=thread).
//
// Metric name taxonomy: dot-separated, "<layer>.<site>.<what>", e.g.
// gdb.union.duration_us, store.signature_probes, eval.round.delta_tuples.
// Histograms use power-of-two buckets: bucket 0 holds values <= 0, bucket
// i >= 1 holds [2^(i-1), 2^i).
#ifndef LRPDB_OBS_METRICS_H_
#define LRPDB_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/thread_annotations.h"

namespace lrpdb::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<int64_t> value_{0};
};

// Last-written instantaneous value (plus the running max, which is what a
// scrape of a sawtooth quantity usually wants).
class Gauge {
 public:
  void Set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{INT64_MIN};
};

// Fixed-bucket histogram over int64 samples (latencies in microseconds,
// cardinalities, ...). Bucket 0 counts samples <= 0; bucket i in [1, 62]
// counts samples in [2^(i-1), 2^i); the last bucket absorbs the tail.
class Histogram {
 public:
  static constexpr int kNumBuckets = 63;

  // The bucket a sample lands in.
  static int BucketOf(int64_t value) {
    if (value <= 0) return 0;
    int bits = 0;
    for (uint64_t v = static_cast<uint64_t>(value); v != 0; v >>= 1) ++bits;
    return bits < kNumBuckets ? bits : kNumBuckets - 1;
  }
  // Inclusive upper bound of bucket i (kNumBuckets-1 is unbounded).
  static int64_t BucketUpperBound(int i) {
    if (i <= 0) return 0;
    if (i >= kNumBuckets - 1) return INT64_MAX;
    return (int64_t{1} << i) - 1;
  }

  void Record(int64_t value) {
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  std::string name_;
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

// Point-in-time copy of every registered metric, detached from the atomics.
struct MetricsSnapshot {
  struct HistogramData {
    int64_t count = 0;
    int64_t sum = 0;
    // Sparse: only non-empty buckets, as (bucket index, count).
    std::vector<std::pair<int, int64_t>> buckets;
  };
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  // {"counters": {...}, "gauges": {...}, "histograms": {name:
  //  {"count": n, "sum": s, "buckets": {"<upper_bound>": c, ...}}, ...}}
  std::string ToJson() const;
};

// Process-global metric namespace. Get* interns by name: the first call
// registers (under a mutex), later calls with the same name return the same
// stable handle. Distinct kinds share the namespace; re-registering a name
// as a different kind aborts (programming error).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name) LRPDB_LOCKS_EXCLUDED(mu_);
  Gauge* GetGauge(const std::string& name) LRPDB_LOCKS_EXCLUDED(mu_);
  Histogram* GetHistogram(const std::string& name) LRPDB_LOCKS_EXCLUDED(mu_);

  MetricsSnapshot Snapshot() const LRPDB_LOCKS_EXCLUDED(mu_);
  std::string ToJson() const { return Snapshot().ToJson(); }

  // Zeroes every value, keeping the registered handles valid (benches call
  // this between phases; tests call it for determinism).
  void Reset() LRPDB_LOCKS_EXCLUDED(mu_);

  size_t size() const LRPDB_LOCKS_EXCLUDED(mu_);

  // Writes ToJson() to `path`; returns false (with a stderr note) on I/O
  // failure. WriteEnvSink consults LRPDB_METRICS and is a no-op without it.
  bool WriteJsonFile(const std::string& path) const;
  bool WriteEnvSink() const;

 private:
  // Serializes registration and snapshotting. The handles themselves are
  // lock-free: once a Get* call returns, the pointer is stable and every
  // mutation through it is a relaxed atomic, so mu_ never sits on the
  // metric-update fast path.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LRPDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ LRPDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      LRPDB_GUARDED_BY(mu_);
};

// Per-operator handle bundle for the gdb algebra: invocation count, input
// and output tuple cardinalities, and a duration histogram, registered as
// gdb.<op>.{calls,input_tuples,output_tuples,duration_us}.
class OperatorMetrics {
 public:
  // Interned per operator name (stable pointer, registry-backed).
  static OperatorMetrics* Get(const std::string& op);

  // RAII measurement of one operator invocation.
  class Scope {
   public:
    Scope(OperatorMetrics* m, int64_t input_tuples)
        : m_(m),
          input_(input_tuples),
          start_(std::chrono::steady_clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_output(int64_t output_tuples) { output_ = output_tuples; }
    ~Scope() {
      auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      m_->calls->Increment();
      m_->input_tuples->Add(input_);
      m_->output_tuples->Add(output_);
      m_->duration_us->Record(us);
    }

   private:
    OperatorMetrics* m_;
    int64_t input_;
    int64_t output_ = 0;
    std::chrono::steady_clock::time_point start_;
  };

  Counter* calls = nullptr;
  Counter* input_tuples = nullptr;
  Counter* output_tuples = nullptr;
  Histogram* duration_us = nullptr;
};

// RAII wall-clock timer recording elapsed microseconds into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(h), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    h_->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - start_)
                   .count());
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

// Monotonic timestamps for engine-side profiling (per-round / per-rule
// timings in EvalProfile). All wall-clock reads in the engine go through
// these two functions: the obs layer is the only library allowed to touch
// the clock (ci/lint/run_lint.py, rule wall-clock), and under
// LRPDB_NO_METRICS both collapse to constants so the uninstrumented build
// performs no clock reads at all.
using MonotonicTime = std::chrono::steady_clock::time_point;
#if !defined(LRPDB_NO_METRICS)
inline MonotonicTime MonotonicNow() {
  return std::chrono::steady_clock::now();
}
inline int64_t UsSince(MonotonicTime start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(MonotonicNow() -
                                                               start)
      .count();
}
#else
inline MonotonicTime MonotonicNow() { return MonotonicTime(); }
inline int64_t UsSince(MonotonicTime) { return 0; }
#endif

namespace internal {
// No-op stand-ins the LRPDB_NO_METRICS macros expand to; every method the
// instrumented code uses exists and does nothing.
struct NullScope {
  explicit NullScope(int64_t = 0) {}
  void set_output(int64_t) {}
};
}  // namespace internal

}  // namespace lrpdb::obs

// --- Call-site macros -------------------------------------------------------
//
// Each macro materializes the handle once per site via a function-local
// static, so steady state is a pointer load plus one relaxed atomic add.

#if !defined(LRPDB_NO_METRICS)

#define LRPDB_OBS_CONCAT_INNER(a, b) a##b
#define LRPDB_OBS_CONCAT(a, b) LRPDB_OBS_CONCAT_INNER(a, b)

#define LRPDB_COUNTER_ADD(name, n)                                          \
  do {                                                                      \
    static ::lrpdb::obs::Counter* lrpdb_obs_counter =                       \
        ::lrpdb::obs::MetricsRegistry::Global().GetCounter(name);           \
    lrpdb_obs_counter->Add(n);                                              \
  } while (false)

#define LRPDB_COUNTER_INC(name) LRPDB_COUNTER_ADD(name, 1)

#define LRPDB_GAUGE_SET(name, v)                                            \
  do {                                                                      \
    static ::lrpdb::obs::Gauge* lrpdb_obs_gauge =                           \
        ::lrpdb::obs::MetricsRegistry::Global().GetGauge(name);             \
    lrpdb_obs_gauge->Set(v);                                                \
  } while (false)

#define LRPDB_HISTOGRAM_RECORD(name, v)                                     \
  do {                                                                      \
    static ::lrpdb::obs::Histogram* lrpdb_obs_histogram =                   \
        ::lrpdb::obs::MetricsRegistry::Global().GetHistogram(name);         \
    lrpdb_obs_histogram->Record(v);                                         \
  } while (false)

// RAII: records elapsed microseconds into histogram `name` at scope exit.
#define LRPDB_SCOPED_TIMER_US(name)                                        \
  static ::lrpdb::obs::Histogram* LRPDB_OBS_CONCAT(lrpdb_obs_timer_h_,     \
                                                   __LINE__) =             \
      ::lrpdb::obs::MetricsRegistry::Global().GetHistogram(name);          \
  ::lrpdb::obs::ScopedTimer LRPDB_OBS_CONCAT(lrpdb_obs_timer_, __LINE__)(  \
      LRPDB_OBS_CONCAT(lrpdb_obs_timer_h_, __LINE__))

// RAII operator scope named `var`: counts one invocation of gdb operator
// `op` with the given input cardinality; call var.set_output(n) before
// returning to record the output cardinality.
#define LRPDB_OPERATOR_SCOPE(var, op, input)                               \
  static ::lrpdb::obs::OperatorMetrics* var##_metrics =                    \
      ::lrpdb::obs::OperatorMetrics::Get(op);                              \
  ::lrpdb::obs::OperatorMetrics::Scope var(var##_metrics,                  \
                                           static_cast<int64_t>(input))

#else  // LRPDB_NO_METRICS

#define LRPDB_COUNTER_ADD(name, n) \
  do {                             \
  } while (false)
#define LRPDB_COUNTER_INC(name) \
  do {                          \
  } while (false)
#define LRPDB_GAUGE_SET(name, v) \
  do {                           \
  } while (false)
#define LRPDB_HISTOGRAM_RECORD(name, v) \
  do {                                  \
  } while (false)
#define LRPDB_SCOPED_TIMER_US(name) \
  do {                              \
  } while (false)
#define LRPDB_OPERATOR_SCOPE(var, op, input) \
  ::lrpdb::obs::internal::NullScope var(static_cast<int64_t>(input))

#endif  // LRPDB_NO_METRICS

#endif  // LRPDB_OBS_METRICS_H_
