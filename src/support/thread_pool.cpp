#include "support/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace dgc {

unsigned ThreadPool::DefaultThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = DefaultThreads();
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> job) {
  DGC_CHECK(job != nullptr);
  std::packaged_task<void()> task(std::move(job));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

Status ThreadPool::RunAllParticipating(std::vector<std::function<void()>> jobs) {
  if (jobs.empty()) {
    return Status(ErrorCode::kInvalidArgument,
                  "ThreadPool::RunAllParticipating: no jobs to run");
  }
  for (const auto& job : jobs) {
    if (job == nullptr) {
      return Status(ErrorCode::kInvalidArgument,
                    "ThreadPool::RunAllParticipating: null job");
    }
  }
  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& job : jobs) {
      std::packaged_task<void()> task(std::move(job));
      futures.push_back(task.get_future());
      queue_.push_back(std::move(task));
    }
  }
  cv_.notify_all();
  // Help: drain the queue on this thread until it is empty. The caller may
  // run tasks from other batches sharing the pool — that only accelerates
  // them — and cannot block: anything still queued is runnable right here.
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) break;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
  // Tasks picked up by workers may still be in flight; wait for the whole
  // batch before reporting, so no job outlives the caller's state. The
  // smallest-index exception wins (deterministic under races).
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return Status::Ok();
}

Status ParallelFor(std::size_t count, unsigned threads,
                   const std::function<void(std::size_t)>& body) {
  if (count == 0) {
    return Status(ErrorCode::kInvalidArgument, "ParallelFor: no jobs to run");
  }
  if (body == nullptr) {
    return Status(ErrorCode::kInvalidArgument, "ParallelFor: null body");
  }
  const unsigned concurrency = unsigned(std::min<std::size_t>(threads, count));
  if (concurrency <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return Status::Ok();
  }
  // concurrency - 1 workers; the caller is the final lane. Participation
  // (rather than idle waiting) is what makes nesting safe: a body that
  // itself fans out, or a ParallelFor issued from another pool's worker,
  // always has at least its own thread making progress.
  ThreadPool pool(concurrency - 1);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs.push_back([&body, i] { body(i); });
  }
  return pool.RunAllParticipating(std::move(jobs));
}

}  // namespace dgc
