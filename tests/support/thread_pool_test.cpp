// Tests for the sweep harness's worker pool (support/thread_pool.h).
#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace dgc {
namespace {

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

TEST(ThreadPool, ZeroRequestedThreadsFallsBackToDefault) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), ThreadPool::DefaultThreads());
}

TEST(ThreadPool, SubmitRunsJobAndCompletesFuture) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  auto future = pool.Submit([&] { value = 42; });
  future.get();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, RunAllRunsEveryJob) {
  ThreadPool pool(4);
  constexpr std::size_t kJobs = 64;
  std::vector<int> hits(kJobs, 0);
  std::vector<std::function<void()>> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs.push_back([&hits, i] { hits[i] += 1; });  // slot per job: no races
  }
  ASSERT_TRUE(pool.RunAll(std::move(jobs)).ok());
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back([&order, i] { order.push_back(i); });
  }
  ASSERT_TRUE(pool.RunAll(std::move(jobs)).ok());
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(ThreadPool, ZeroJobsRejected) {
  ThreadPool pool(2);
  const Status s = pool.RunAll({});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
}

TEST(ThreadPool, NullJobRejectedBeforeAnythingRuns) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> jobs;
  jobs.push_back([&] { ++ran; });
  jobs.push_back(nullptr);
  const Status s = pool.RunAll(std::move(jobs));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(ran, 0);
}

TEST(ThreadPool, FirstIndexExceptionPropagatesAfterAllJobsFinish) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> jobs;
  jobs.push_back([&] { ++completed; });
  jobs.push_back([] { throw std::runtime_error("job 1 failed"); });
  jobs.push_back([] { throw std::logic_error("job 2 failed"); });
  jobs.push_back([&] { ++completed; });
  try {
    const Status status = pool.RunAll(std::move(jobs));
    FAIL() << "expected an exception, got " << status.ToString();
  } catch (const std::runtime_error& e) {
    // The smallest-index throwing job wins, not whichever finished first.
    EXPECT_STREQ(e.what(), "job 1 failed");
  }
  EXPECT_EQ(completed, 2);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  for (unsigned threads : {1u, 4u}) {
    constexpr std::size_t kCount = 40;
    std::vector<int> hits(kCount, 0);
    ASSERT_TRUE(
        ParallelFor(kCount, threads, [&](std::size_t i) { hits[i] += 1; })
            .ok());
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ThreadPool, ParallelForRejectsEmptyRangeAndNullBody) {
  EXPECT_EQ(ParallelFor(0, 2, [](std::size_t) {}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(ParallelFor(3, 2, nullptr).code(), ErrorCode::kInvalidArgument);
}

TEST(ThreadPool, ParallelForInlineModeThrowsAtFirstFailingIndex) {
  std::vector<std::size_t> seen;
  EXPECT_THROW(ParallelFor(8, 1,
                           [&](std::size_t i) {
                             seen.push_back(i);
                             if (i == 3) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// --- Nested submission (the sweep-worker-runs-a-threaded-launch shape) -----

TEST(ThreadPool, NestedRunAllParticipatingFromOwnWorkerCompletes) {
  // Regression: a pool worker fanning a batch back into its own pool. With
  // plain RunAll this deadlocks on a single-worker pool — the worker waits
  // for jobs only it could run. RunAllParticipating drains the queue on
  // the calling (worker) thread, so the batch completes regardless of how
  // many workers are free.
  ThreadPool pool(1);
  std::atomic<int> inner_runs{0};
  auto outer = pool.Submit([&] {
    std::vector<std::function<void()>> inner;
    for (int i = 0; i < 4; ++i) {
      inner.push_back([&] { inner_runs.fetch_add(1); });
    }
    const Status status = pool.RunAllParticipating(std::move(inner));
    ASSERT_TRUE(status.ok()) << status.ToString();
  });
  outer.get();
  EXPECT_EQ(inner_runs.load(), 4);
}

TEST(ThreadPool, ParallelForFromInsidePoolWorkerCompletes) {
  // ParallelFor spawns its own temporary participating crew, so calling it
  // from another pool's worker must neither deadlock nor idle the caller.
  ThreadPool pool(1);
  std::atomic<int> hits{0};
  auto outer = pool.Submit([&] {
    const Status status =
        ParallelFor(16, 4, [&](std::size_t) { hits.fetch_add(1); });
    ASSERT_TRUE(status.ok()) << status.ToString();
  });
  outer.get();
  EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPool, NestedParticipatingBatchesPropagateExceptions) {
  ThreadPool pool(1);
  auto outer = pool.Submit([&] {
    std::vector<std::function<void()>> inner;
    inner.push_back([] {});
    inner.push_back([]() -> void { throw std::runtime_error("inner boom"); });
    EXPECT_THROW(
        { (void)pool.RunAllParticipating(std::move(inner)); },
        std::runtime_error);
  });
  outer.get();
}

}  // namespace
}  // namespace dgc
