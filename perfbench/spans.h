// In-memory span recording around public library calls, made from the
// benchmark's own code (the library itself is not instrumented for this).
//
// A span has a name, start and end (steady-clock nanoseconds), the span
// that was open when it started (its parent), and the operation id of the
// closed-loop operation it belongs to. Spans are kept in memory while the
// workload runs and written out once at exit; self times are derived
// afterwards: a span's self time is its duration minus the part of its
// interval covered by its children.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  int64_t op = 0;   // closed-loop operation id, 0 outside any operation
};

class SpanRecorder {
 public:
  // A disabled recorder records nothing and costs one branch per scope.
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op(int64_t op) { op_ = op; }

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled).
  int Begin(const char* name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  int64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span over one call.
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder->Begin(name)) {}
  ~Scope() { recorder_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

int64_t NowNs();

// Self time of every span: duration minus the union of its children's
// intervals (children are clipped to the parent's interval).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
// Per-name totals over all spans.
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
