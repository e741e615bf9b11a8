// A small fixed-size worker pool for running independent host-side jobs —
// the engine behind the parallel Fig. 6 sweep runner (ensemble/experiment.h).
//
// The pool is deliberately simple: a FIFO queue drained by N workers. Jobs
// start in submission order; completion order is up to the host scheduler,
// so callers that need deterministic output must write results into
// pre-assigned slots and assemble them after the batch returns (exactly
// what the sweep runner does, through ParallelFor).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "support/status.h"

namespace dgc {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 picks DefaultThreads().
  explicit ThreadPool(unsigned num_threads = 0);
  /// Drains the queue, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return unsigned(workers_.size()); }

  /// max(1, std::thread::hardware_concurrency()).
  static unsigned DefaultThreads();

  /// Enqueues one job (must be non-null); jobs start in submission order.
  /// The future completes when the job returns or throws.
  std::future<void> Submit(std::function<void()> job);

  /// Queues every job and blocks until all of them finished, with the
  /// calling thread draining the queue alongside the workers until its
  /// batch is done. Progress is guaranteed even when every worker is busy
  /// (or the pool is the caller's own): the caller itself runs whatever is
  /// still queued, so a pool worker may submit a batch of its own
  /// (ParallelFor called from a job). An empty batch or a null job is
  /// rejected with kInvalidArgument before anything runs. If jobs throw,
  /// every job still runs to completion and then the exception of the
  /// smallest-index throwing job is rethrown.
  Status RunAllParticipating(std::vector<std::function<void()>> jobs);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(0), ..., body(count-1) to completion. `threads` <= 1 executes
/// inline in index order (no pool, no extra threads — bit-for-bit today's
/// serial behaviour); otherwise min(threads, count) - 1 temporary workers
/// plus the calling thread run the calls concurrently
/// (RunAllParticipating), so calling from inside another pool's worker can
/// never deadlock and never idles the caller. Rejects count == 0 with
/// kInvalidArgument. Exceptions propagate as in RunAllParticipating (inline
/// mode throws at the first failing index).
Status ParallelFor(std::size_t count, unsigned threads,
                   const std::function<void(std::size_t)>& body);

}  // namespace dgc
