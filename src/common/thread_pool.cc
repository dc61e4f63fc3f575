#include "src/common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "src/common/exec_context.h"
// Header-only MonotonicNow/UsSince only; lrpdb_common must not link
// lrpdb_obs (dependency cycle).
#include "src/obs/metrics.h"

namespace lrpdb {
namespace {

int HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<int>(
      std::min<unsigned>(hw, static_cast<unsigned>(ThreadPool::kMaxThreads)));
}

int ClampThreads(int n) {
  return std::max(1, std::min(n, ThreadPool::kMaxThreads));
}

}  // namespace

int ThreadPool::DefaultThreads() {
  const char* env = std::getenv("LRPDB_THREADS");
  if (env == nullptr || *env == '\0') return 1;
  std::string value(env);
  if (value == "max") return HardwareThreads();
  char* end = nullptr;
  long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || parsed <= 0) return 1;
  return ClampThreads(static_cast<int>(parsed));
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: worker threads may still be parked in WorkerLoop at
  // static-destruction time, and there is no safe point to join them after
  // main returns.
  // lint: allow(naked-new)
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> workers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers) t.join();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.jobs = jobs_.load(std::memory_order_relaxed);
  s.chunks = chunks_.load(std::memory_order_relaxed);
  s.idle_us = idle_us_.load(std::memory_order_relaxed);
  s.workers = num_workers_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::Job::RecordError(int64_t chunk_start, const Status& status) {
  cancelled.store(true, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(mu);
  if (first_error_chunk < 0 || chunk_start < first_error_chunk) {
    first_error_chunk = chunk_start;
    first_error = status;
  }
}

[[nodiscard]] Status ThreadPool::Job::TakeError() {
  std::unique_lock<std::mutex> lock(mu);
  return first_error_chunk < 0 ? OkStatus() : first_error;
}

[[nodiscard]] Status ThreadPool::ParallelFor(
    int64_t n, int64_t grain, int parallelism, ExecContext* exec,
    const std::function<Status(int64_t, int64_t)>& body) {
  if (n <= 0) return OkStatus();
  if (grain <= 0) grain = 1;
  parallelism = ClampThreads(parallelism);
  // Never recruit more participants than there are chunks.
  int64_t num_chunks = (n + grain - 1) / grain;
  parallelism = static_cast<int>(std::min<int64_t>(parallelism, num_chunks));

  if (parallelism == 1) {
    // Inline fast path: identical control flow to a plain sequential loop
    // with a poll per chunk — no queue, no locks, no worker handoff.
    ExecContext::ScopedCurrent scoped(exec);
    for (int64_t begin = 0; begin < n; begin += grain) {
      if (Status poll = PollExec(exec); !poll.ok()) return poll;
      int64_t end = std::min(n, begin + grain);
      chunks_.fetch_add(1, std::memory_order_relaxed);
      if (Status status = body(begin, end); !status.ok()) return status;
    }
    return OkStatus();
  }

  auto job = std::make_shared<Job>();
  job->n = n;
  job->grain = grain;
  job->max_participants = parallelism;
  job->body = &body;
  job->exec = exec;

  jobs_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(mu_);
    EnsureWorkers(parallelism - 1);
    queue_.push_back(job);
  }
  work_cv_.notify_all();

  // The calling thread participates alongside the workers.
  job->participants.fetch_add(1, std::memory_order_relaxed);
  job->running.fetch_add(1, std::memory_order_relaxed);
  RunChunks(job.get());
  job->running.fetch_sub(1, std::memory_order_relaxed);

  // Wait until every worker that joined has drained. Workers decrement
  // `running` while holding mu_ (see WorkerLoop), so this predicate cannot
  // miss a wakeup, and the mutex hand-off makes every chunk's writes
  // visible to the merge code that runs after ParallelFor returns.
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job->running.load(std::memory_order_relaxed) == 0 &&
             (job->next.load(std::memory_order_relaxed) >= job->n ||
              job->cancelled.load(std::memory_order_relaxed));
    });
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->get() == job.get()) {
        queue_.erase(it);
        break;
      }
    }
  }

  if (Status status = job->TakeError(); !status.ok()) return status;
  // Cancellation without a recorded chunk error means the caller's context
  // tripped; surface its sticky governance status.
  if (job->cancelled.load(std::memory_order_relaxed)) {
    if (Status poll = PollExec(exec); !poll.ok()) return poll;
  }
  return OkStatus();
}

void ThreadPool::RunChunks(Job* job) {
  ExecContext::ScopedCurrent scoped(job->exec);
  for (;;) {
    if (job->cancelled.load(std::memory_order_relaxed)) return;
    if (Status poll = PollExec(job->exec); !poll.ok()) {
      // Governance trips are sticky on the context; cancel the remaining
      // chunks and let the caller re-derive the status from the context.
      job->cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    int64_t begin = job->next.fetch_add(job->grain, std::memory_order_relaxed);
    if (begin >= job->n) return;
    int64_t end = std::min(job->n, begin + job->grain);
    chunks_.fetch_add(1, std::memory_order_relaxed);
    if (Status status = (*job->body)(begin, end); !status.ok()) {
      job->RecordError(begin, status);
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    obs::MonotonicTime idle_start = obs::MonotonicNow();
    work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    idle_us_.fetch_add(obs::UsSince(idle_start), std::memory_order_relaxed);
    if (shutdown_) return;
    // Scan for the oldest job still recruiting. `participants` never
    // decreases, so a job that is exhausted, cancelled, or at quota can
    // never become joinable again — erase it on sight (the caller holds
    // its own shared_ptr) so the wait predicate above does not spin.
    std::shared_ptr<Job> job;
    for (auto it = queue_.begin(); it != queue_.end();) {
      Job* q = it->get();
      if (q->participants.load(std::memory_order_relaxed) <
              q->max_participants &&
          q->next.load(std::memory_order_relaxed) < q->n &&
          !q->cancelled.load(std::memory_order_relaxed)) {
        q->participants.fetch_add(1, std::memory_order_relaxed);
        job = *it;
        break;
      }
      it = queue_.erase(it);
    }
    if (job == nullptr) continue;  // Queue drained; wait for more work.
    job->running.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    RunChunks(job.get());
    // Decrement under mu_ so ParallelFor's done_cv_ predicate check and
    // this decrement are serialized — otherwise the notify could fire
    // between the caller's predicate evaluation and its sleep.
    lock.lock();
    job->running.fetch_sub(1, std::memory_order_relaxed);
    done_cv_.notify_all();
  }
}

void ThreadPool::EnsureWorkers(int target) {
  target = std::min(target, kMaxThreads - 1);
  while (static_cast<int>(workers_.size()) < target) {
    workers_.emplace_back([this] { WorkerLoop(); });
    num_workers_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace lrpdb
