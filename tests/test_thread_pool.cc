// Stress suite for ThreadPool / ParallelFor. Each scenario here is chosen
// to light up under ThreadSanitizer if the pool's synchronization regresses:
// run it through the `tsan` preset, not just the default build
// (docs/DEVELOPMENT.md).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace simrank {
namespace {

// ---------- Submit interleavings ----------
//
// The pool tracks no completion: each scenario waits on a test-local latch
// or on the destructor's drain. The counters and latches are declared
// before the pool, so they outlive its workers.

TEST(ThreadPoolStressTest, SubmitFromManyThreads) {
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 250;
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&pool, &counter] {
        for (int i = 0; i < kTasksPerProducer; ++i) {
          pool.Submit([&counter] { counter.fetch_add(1); });
        }
      });
    }
    for (std::thread& producer : producers) producer.join();
  }  // the destructor drains the queue
  EXPECT_EQ(counter.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolStressTest, SubmitFromWithinTask) {
  std::atomic<int> counter{0};
  std::latch done(2);
  ThreadPool pool(2);
  pool.Submit([&] {
    counter.fetch_add(1);
    done.count_down();
    // A task may submit: the child queues behind whatever is pending.
    pool.Submit([&] {
      counter.fetch_add(1);
      done.count_down();
    });
  });
  done.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolStressTest, Oversubscription) {
  // Far more workers than cores: exercises contended queue handoff and the
  // shutdown broadcast across parked threads.
  std::atomic<size_t> sum{0};
  {
    ThreadPool pool(4 * std::max(1u, std::thread::hardware_concurrency()));
    for (size_t i = 1; i <= 1000; ++i) {
      pool.Submit([&sum, i] { sum.fetch_add(i); });
    }
  }  // the destructor drains the queue
  EXPECT_EQ(sum.load(), 1000u * 1001u / 2);
}

TEST(ThreadPoolStressTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Nothing waits: the destructor must still run every queued task.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolDeathTest, EscapedTaskExceptionTerminates) {
  // A task must not throw; one that does ends the process instead of
  // being dropped silently.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        pool.Submit([] { throw std::runtime_error("escaped"); });
      },
      "");
}

// ---------- ParallelFor ----------

TEST(ParallelForStressTest, ConcurrentCallsOnSharedPool) {
  // Two ParallelFor calls race on one pool; per-call completion tracking
  // means each must return exactly when its own range is done.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(2000), b(2000);
  std::thread other([&pool, &b] {
    ParallelFor(&pool, 0, b.size(), [&b](size_t i) { b[i].fetch_add(1); });
  });
  ParallelFor(&pool, 0, a.size(), [&a](size_t i) { a[i].fetch_add(1); });
  for (const auto& h : a) EXPECT_EQ(h.load(), 1);
  other.join();
  for (const auto& h : b) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForStressTest, ManySmallRangesBackToBack) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    ParallelFor(&pool, 0, 7, [&sum](size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 21u);
  }
}

TEST(ParallelForStressTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  EXPECT_THROW(ParallelFor(&pool, 0, hits.size(),
                           [&hits](size_t i) {
                             hits[i].fetch_add(1);
                             if (i == 250) throw std::runtime_error("mid");
                           }),
               std::runtime_error);
  // The throwing chunk stops at the exception, but every other chunk runs
  // to completion before the rethrow, and nothing runs twice.
  int total = 0;
  for (const auto& h : hits) {
    EXPECT_LE(h.load(), 1);
    total += h.load();
  }
  EXPECT_EQ(hits[250].load(), 1);
  EXPECT_GE(total, 251);
}

TEST(ParallelForStressTest, InlineExceptionWithNullPool) {
  EXPECT_THROW(ParallelFor(nullptr, 0, 10,
                           [](size_t i) {
                             if (i == 3) throw std::runtime_error("inline");
                           }),
               std::runtime_error);
}

TEST(ParallelForStressTest, PoolUnpoisonedAfterParallelForException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 100,
                  [](size_t) { throw std::runtime_error("all fail"); }),
      std::runtime_error);
  // ParallelFor consumed the exception inside its chunks: every worker
  // is still alive and runs the next call.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 0, 64, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelForStressTest, LargeRangeCoversExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(100000);
  ParallelFor(&pool, 0, hits.size(),
              [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

}  // namespace
}  // namespace simrank
