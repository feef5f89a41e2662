#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace imc {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1U);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 1000,
               [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                 for (std::uint64_t i = begin; i < end; ++i) ++hits[i];
               });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 0,
               [&](std::uint64_t, std::uint64_t, unsigned) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeFewerChunksThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> total{0};
  parallel_for(pool, 3,
               [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                 total += static_cast<int>(end - begin);
               });
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(2);
  EXPECT_THROW((void)
      parallel_for(pool, 100,
                   [](std::uint64_t begin, std::uint64_t, unsigned) {
                     if (begin == 0) throw std::runtime_error("chunk failed");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ChunkIndicesAreDistinct) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<unsigned> chunks;
  parallel_for(pool, 64,
               [&](std::uint64_t, std::uint64_t, unsigned chunk) {
                 const std::lock_guard<std::mutex> lock(mutex);
                 chunks.push_back(chunk);
               });
  std::sort(chunks.begin(), chunks.end());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i], i);
  }
}

// Regression: a parallel_for issued from INSIDE a submitted task used to
// block in future::get() while its own chunks sat behind it in the queue —
// a guaranteed deadlock on a 1-thread pool. Help-running makes the waiting
// thread execute queued chunks itself.
TEST(ParallelFor, NestedInsideSubmittedTaskOneThread) {
  ThreadPool pool(1);
  std::atomic<int> total{0};
  auto done = pool.submit([&] {
    parallel_for(pool, 100,
                 [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                   total += static_cast<int>(end - begin);
                 });
  });
  done.get();
  EXPECT_EQ(total.load(), 100);
}

TEST(ParallelFor, NestedInsideSubmittedTaskManyThreads) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  std::vector<std::future<void>> outer;
  // More outer tasks than workers, each fanning out again: every worker is
  // simultaneously a parallel_for caller.
  for (int t = 0; t < 8; ++t) {
    outer.push_back(pool.submit([&] {
      parallel_for(pool, 50,
                   [&](std::uint64_t begin, std::uint64_t end, unsigned) {
                     total += static_cast<int>(end - begin);
                   });
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(total.load(), 8 * 50);
}

TEST(ParallelFor, TwoLevelNestingInsideBody) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  parallel_for(pool, 6, [&](std::uint64_t begin, std::uint64_t end, unsigned) {
    for (std::uint64_t i = begin; i < end; ++i) {
      parallel_for(pool, 10,
                   [&](std::uint64_t b, std::uint64_t e, unsigned) {
                     total += static_cast<int>(e - b);
                   });
    }
  });
  EXPECT_EQ(total.load(), 60);
}

TEST(ParallelFor, NestedBodyExceptionStillPropagates) {
  ThreadPool pool(1);
  auto done = pool.submit([&] {
    parallel_for(pool, 10, [](std::uint64_t begin, std::uint64_t, unsigned) {
      if (begin == 0) throw std::runtime_error("inner chunk failed");
    });
  });
  EXPECT_THROW(done.get(), std::runtime_error);
}

TEST(ThreadPool, TryRunOneDrainsQueue) {
  ThreadPool pool(1);
  // Park the single worker so submissions stay queued. Wait until the
  // worker actually OWNS the parked task — otherwise try_run_one below
  // could pop it onto this thread and spin on `release` forever.
  std::atomic<bool> parked_started{false};
  std::atomic<bool> release{false};
  auto parked = pool.submit([&] {
    parked_started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!parked_started.load()) std::this_thread::yield();
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  while (pool.try_run_one()) {
  }
  EXPECT_EQ(counter.load(), 5);
  release.store(true);
  parked.get();
  for (auto& f : futures) f.get();
  EXPECT_FALSE(pool.try_run_one());
}

TEST(DefaultPool, IsSingleton) {
  EXPECT_EQ(&default_pool(), &default_pool());
  EXPECT_GE(default_pool().size(), 1U);
}

}  // namespace
}  // namespace imc
