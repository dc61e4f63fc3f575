// Process-wide worker pool for data-parallel engine loops.
//
// Design (DESIGN.md §8): one fixed set of worker threads, grown lazily up
// to the requested parallelism and reused across evaluations, so a
// fixpoint round never pays thread spawn/join costs. All parallelism in
// the engine goes through ParallelFor — the lint rule `raw-thread`
// (ci/lint/run_lint.py) rejects std::thread / std::async anywhere else —
// because the pool is what guarantees the two invariants parallel engine
// code relies on:
//
//  * ExecContext propagation. Every chunk executes under
//    ExecContext::ScopedCurrent(exec), so deep layers that charge the
//    ambient thread-local context (Dbm closure's step accounting,
//    trip-budget failpoints) behave identically on a worker thread and on
//    the calling thread. Workers poll the context between chunks; the
//    first trip (or any error) cancels all unclaimed chunks.
//
//  * Deterministic error selection. When several chunks fail, ParallelFor
//    reports the error of the lowest-indexed failing chunk, not the
//    temporally first one, so a parallel loop surfaces the same Status a
//    sequential loop would have hit first.
//
// Thread count resolution: the LRPDB_THREADS environment variable ("4",
// "max" for the hardware concurrency; absent = 1) provides the default.
// Callers (e.g. EvaluationOptions::num_threads) may also pass an explicit
// parallelism per ParallelFor. A parallelism of 1 runs entirely inline on the calling
// thread — no queue, no locks — which keeps single-threaded evaluation
// byte-identical in behavior and cost to the pre-pool engine.
#ifndef LRPDB_COMMON_THREAD_POOL_H_
#define LRPDB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>  // Exempt from lint rule raw-thread: this IS the pool.
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_annotations.h"

namespace lrpdb {

class ExecContext;

class ThreadPool {
 public:
  // Upper bound on workers a pool will ever spawn; LRPDB_THREADS and
  // programmatic requests clamp to [1, kMaxThreads].
  static constexpr int kMaxThreads = 64;

  // The default parallelism: LRPDB_THREADS (an integer, or "max" meaning
  // the hardware concurrency), else 1. Always in [1, kMaxThreads].
  static int DefaultThreads();

  // The process-wide pool. Workers are spawned on first demand and live
  // until process exit; the pool is safe to use from multiple threads.
  static ThreadPool& Global();

  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Cumulative pool counters, safe to read concurrently with running jobs.
  // idle_us only advances in instrumented builds (the pool reads time via
  // obs::MonotonicNow, which is compiled to a constant under
  // LRPDB_NO_METRICS).
  struct Stats {
    int64_t jobs = 0;      // ParallelFor calls that used workers.
    int64_t chunks = 0;    // Chunks executed (across workers + callers).
    int64_t idle_us = 0;   // Total worker time spent waiting for work.
    int workers = 0;       // Workers currently spawned.
  };
  Stats stats() const;

  // Invokes `body(begin, end)` over consecutive chunks covering [0, n),
  // each at most `grain` long, on up to `parallelism` threads (the calling
  // thread participates; at most parallelism - 1 workers join). Blocks
  // until every claimed chunk finished or the job was cancelled.
  //
  // Cancellation: before claiming each chunk, participants observe the
  // job's cancel flag and poll `exec` (when non-null); the first failing
  // chunk or poll cancels every unclaimed chunk. Claimed chunks always run
  // to completion — `body` must not rely on external interruption.
  //
  // Returns OK iff every chunk of [0, n) ran and returned OK; otherwise
  // the error of the lowest-indexed failing chunk. Chunks skipped by
  // cancellation do not contribute a Status.
  //
  // `body` runs under ExecContext::ScopedCurrent(exec) on every
  // participating thread and must be safe to call concurrently on
  // disjoint chunks.
  [[nodiscard]] Status ParallelFor(
      int64_t n, int64_t grain, int parallelism, ExecContext* exec,
      const std::function<Status(int64_t, int64_t)>& body);

 private:
  // One ParallelFor invocation's shared state. Reference-counted so a
  // worker that dequeued the job can outlive the caller's wait loop
  // without dangling.
  struct Job {
    int64_t n = 0;
    int64_t grain = 1;
    int max_participants = 1;
    const std::function<Status(int64_t, int64_t)>* body = nullptr;
    ExecContext* exec = nullptr;

    std::atomic<int64_t> next{0};        // Next unclaimed chunk start.
    std::atomic<bool> cancelled{false};
    std::atomic<int> running{0};         // Participants inside RunChunks.
    std::atomic<int> participants{0};    // Participants ever joined.

    std::mutex mu;
    Status first_error LRPDB_GUARDED_BY(mu);
    int64_t first_error_chunk LRPDB_GUARDED_BY(mu) = -1;

    void RecordError(int64_t chunk_start, const Status& status);
    [[nodiscard]] Status TakeError();
  };

  // Claims and executes chunks of `job` until exhausted or cancelled.
  void RunChunks(Job* job);
  void WorkerLoop();
  // Spawns workers until `target` exist (clamped to kMaxThreads - 1, the
  // calling thread being the +1). Caller must hold mu_.
  void EnsureWorkers(int target) LRPDB_EXCLUSIVE_LOCKS_REQUIRED(mu_);

  std::mutex mu_;
  std::condition_variable work_cv_;   // Signals queued work / shutdown.
  std::condition_variable done_cv_;   // Signals a participant finishing.
  std::deque<std::shared_ptr<Job>> queue_ LRPDB_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ LRPDB_GUARDED_BY(mu_);
  bool shutdown_ LRPDB_GUARDED_BY(mu_) = false;

  // Cumulative counters (Stats); relaxed atomics, read without mu_.
  std::atomic<int64_t> jobs_{0};
  std::atomic<int64_t> chunks_{0};
  std::atomic<int64_t> idle_us_{0};
  std::atomic<int> num_workers_{0};
};

}  // namespace lrpdb

#endif  // LRPDB_COMMON_THREAD_POOL_H_
