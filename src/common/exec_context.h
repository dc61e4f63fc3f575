// Execution governance: deadlines, budgets, cooperative cancellation.
//
// An ExecContext is an optional companion to an evaluation. The caller
// configures limits up front (a monotonic deadline, tuple/byte budgets, a
// step quota, a round cap, or nothing at all), hands a pointer to an entry
// point (Evaluate, ResumeEvaluate, QueryAtom, EvaluateGround,
// EvaluateDatalog1S, IncrementalEvaluator's updates), and every
// long-running loop in the engine polls the context at bounded intervals.
// When a limit trips, the poll returns a governance Status
// (kDeadlineExceeded, kResourceExhausted, or kCancelled) and the evaluation
// unwinds through the normal [[nodiscard]] Status discipline — no
// exceptions, no signals, no thread kills.
//
// One route. An entry point installs its context with ScopedCurrent for
// the call; nothing below it takes an ExecContext* parameter. Every layer
// underneath (clause kernels, tuple stores, normalization, the algebra,
// DBM closure, provenance, the WAL, failpoints) reads Current() once per
// call and polls or charges that.
//
// Trips are *sticky*: the first limit to fire wins, and every subsequent
// Poll()/CheckNow() on that context returns the same code and reason, so a
// deep unwind cannot be re-interpreted half-way up as a different failure.
//
// Cost model. Poll() is two relaxed atomic loads and a relaxed fetch_add on
// the fast path; the full check (clock read, budget comparisons) runs every
// poll_stride() calls — 64 by default — so governance is effectively free
// for loops that poll per tuple. The deadline clock is read only when a
// deadline was actually set; a context without one never touches the clock.
//
// Concurrency. Configuration (setters) must happen-before the evaluation
// starts; after that any thread may call Cancel(), Poll(), Charge*() or
// partial() concurrently — all cross-thread state is atomic or guarded.
#ifndef LRPDB_COMMON_EXEC_CONTEXT_H_
#define LRPDB_COMMON_EXEC_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace lrpdb {

// The graceful-degradation payload for a governed evaluation that tripped a
// limit: how far the evaluation provably got before unwinding. The tuple
// sets computed by the completed rounds are a sound under-approximation of
// the fixpoint (bottom-up evaluation is monotone per stratum), so a caller
// can serve them as a partial answer.
struct PartialResult {
  // The governance code that tripped (kOk when nothing tripped).
  StatusCode trip = StatusCode::kOk;
  // Human-readable reason ("deadline exceeded after ...", ...).
  std::string reason;
  // Last fully completed fixpoint round (generalized or ground evaluation).
  int last_completed_round = 0;
  // Largest datalog1s window horizon whose ground model was fully
  // materialized before the trip — a certified lower bound on the horizon
  // the guess-and-certify loop reached.
  int64_t horizon_lower_bound = 0;
  // Resource accounting at the moment the snapshot was taken.
  int64_t tuples_charged = 0;
  int64_t bytes_charged = 0;
  int64_t steps = 0;
  int64_t polls = 0;

  bool tripped() const { return trip != StatusCode::kOk; }
};

class ExecContext {
 public:
  // Round cap of the evaluators, so a workload that never converges cannot
  // spin forever: max_rounds() starts here (override with
  // set_max_rounds()), and Evaluate with no context installed gives up
  // in-band after this many rounds.
  static constexpr int kDefaultMaxRounds = 100000;
  // Full limit check runs every kPollStride-th Poll(); cancellation and an
  // already-recorded trip are still observed on every call.
  static constexpr int kPollStride = 64;

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // ---- Configuration (set before the evaluation starts) ----

  // Absolute monotonic deadline, `micros` from now.
  void set_deadline_after_us(int64_t micros);
  // Budgets; <= 0 means unlimited (the default).
  void set_tuple_budget(int64_t tuples) { tuple_budget_ = tuples; }
  void set_byte_budget(int64_t bytes) { byte_budget_ = bytes; }
  // Step quota over polls + explicitly charged steps (e.g. DBM closure
  // charges ~n^3); <= 0 means unlimited.
  void set_step_quota(int64_t steps) { step_quota_ = steps; }
  void set_max_rounds(int rounds) { max_rounds_ = rounds; }
  int max_rounds() const { return max_rounds_; }

  // ---- Cancellation (any thread, any time) ----

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // ---- Polling (called from evaluation loops) ----

  // Cheap per-iteration check: observes cancellation and a sticky trip on
  // every call, runs the full limit check (deadline, budgets, quota) every
  // poll_stride() calls. OK while the evaluation may continue.
  [[nodiscard]] Status Poll();

  // The full limit check, unconditionally. Evaluators call this at coarse
  // boundaries (start of a fixpoint round, a horizon doubling).
  [[nodiscard]] Status CheckNow();

  // True once any governance limit has tripped (sticky).
  bool tripped() const {
    return trip_code_.load(std::memory_order_acquire) !=
           static_cast<int>(StatusCode::kOk);
  }
  StatusCode trip_code() const {
    return static_cast<StatusCode>(trip_code_.load(std::memory_order_acquire));
  }

  // Records a trip directly (first trip wins; later calls are no-ops).
  // Used by failpoints ("trip-budget" mode) and by evaluators that detect a
  // limit in-band (e.g. the max_rounds cap). Returns the sticky trip
  // status, which may be an earlier trip than the one requested.
  [[nodiscard]] Status Trip(StatusCode code, const std::string& reason);

  // ---- Accounting (relaxed atomics; hot paths) ----

  void ChargeTuples(int64_t n) {
    tuples_.fetch_add(n, std::memory_order_relaxed);
  }
  void ChargeBytes(int64_t n) {
    bytes_.fetch_add(n, std::memory_order_relaxed);
  }
  void ChargeSteps(int64_t n) {
    charged_steps_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t tuples_charged() const {
    return tuples_.load(std::memory_order_relaxed);
  }
  int64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  int64_t steps() const {
    return charged_steps_.load(std::memory_order_relaxed) +
           poll_calls_.load(std::memory_order_relaxed);
  }
  int64_t polls() const { return poll_calls_.load(std::memory_order_relaxed); }

  // ---- Progress reporting (for PartialResult) ----

  void ReportCompletedRound(int round) {
    last_completed_round_.store(round, std::memory_order_relaxed);
  }
  void ReportHorizonLowerBound(int64_t horizon) {
    horizon_lower_bound_.store(horizon, std::memory_order_relaxed);
  }

  // Snapshot of how far the evaluation got. Valid whether or not a limit
  // tripped (trip == kOk when it did not).
  PartialResult partial() const;

  // ---- Thread-local current context ----
  //
  // The one way code below an entry point reaches governance (see the file
  // comment). Null when nothing is installed: the work runs ungoverned.
  static ExecContext* Current();
  static void ChargeCurrentSteps(int64_t n);

  class ScopedCurrent {
   public:
    explicit ScopedCurrent(ExecContext* context);
    ~ScopedCurrent();
    ScopedCurrent(const ScopedCurrent&) = delete;
    ScopedCurrent& operator=(const ScopedCurrent&) = delete;

   private:
    ExecContext* previous_;
  };

  // ---- Test hooks ----

  // Forces the full check on every n-th poll (1 = every poll).
  void set_poll_stride(int n) { poll_stride_ = n > 0 ? n : 1; }
  int poll_stride() const { return poll_stride_; }
  // Cancels the context once Poll() has been called more than `n` times;
  // < 0 disables (default). Drives the cancel-at-every-poll-site harness.
  void set_cancel_after_polls(int64_t n) { cancel_after_polls_ = n; }

 private:
  [[nodiscard]] Status TripStatus() const;

  // Configuration; written before the run, read-only during it.
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  int64_t tuple_budget_ = 0;
  int64_t byte_budget_ = 0;
  int64_t step_quota_ = 0;
  int max_rounds_ = kDefaultMaxRounds;
  int poll_stride_ = kPollStride;
  int64_t cancel_after_polls_ = -1;

  // Hot counters.
  std::atomic<int64_t> poll_calls_{0};
  std::atomic<int64_t> charged_steps_{0};
  std::atomic<int64_t> tuples_{0};
  std::atomic<int64_t> bytes_{0};
  std::atomic<bool> cancelled_{false};

  // Progress.
  std::atomic<int> last_completed_round_{0};
  std::atomic<int64_t> horizon_lower_bound_{0};

  // Sticky trip: code published with release so the reason (guarded) is
  // visible to any thread that observed the code.
  std::atomic<int> trip_code_{static_cast<int>(StatusCode::kOk)};
  mutable std::mutex mu_;
  std::string trip_reason_ LRPDB_GUARDED_BY(mu_);
};

// Poll helper for call sites holding a possibly-null context pointer.
[[nodiscard]] inline Status PollExec(ExecContext* exec) {
  return exec == nullptr ? OkStatus() : exec->Poll();
}

// True when `status` is `exec`'s own sticky governance trip unwinding — the
// signal for graceful degradation rather than a hard error. A plain
// kResourceExhausted from an ungoverned limit (e.g. normalization's
// kMaxResiduePieces cap) does not qualify unless this context recorded it.
[[nodiscard]] bool IsGovernanceTrip(const ExecContext* exec,
                                    const Status& status);

}  // namespace lrpdb

#endif  // LRPDB_COMMON_EXEC_CONTEXT_H_
