#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.h"

namespace fedvr::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter++; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&hits](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RespectsBeginOffset) {
  ThreadPool pool(2);
  std::vector<int> hits(10, 0);
  pool.parallel_for(3, 7, [&hits](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 3 && i < 7) ? 1 : 0);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&calls](std::size_t) { calls++; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, InvertedRangeThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(5, 4, [](std::size_t) {}), Error);
}

TEST(ParallelFor, PropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 50) {
                                     throw std::runtime_error("bad index");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ParallelFor, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> hits(64, 0);
  pool.parallel_for(0, hits.size(), [&hits](std::size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 64);
}

TEST(ParallelFor, LargeGrainFallsBackToSerial) {
  ThreadPool pool(4);
  std::vector<int> hits(10, 0);
  pool.parallel_for(0, hits.size(),
                    [&hits](std::size_t i) { hits[i]++; },
                    /*grain=*/100);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ParallelRanges, CoversRangeInDisjointChunks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(777);
  std::atomic<int> calls{0};
  pool.parallel_ranges(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LT(lo, hi);
        calls++;
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
      },
      /*grain=*/64);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // grain=64 over 777 indices caps the chunk count at ceil(777/64)=13, and
  // a 4-thread pool caps it at 4.
  EXPECT_LE(calls.load(), 4);
  EXPECT_GE(calls.load(), 1);
}

TEST(ParallelRanges, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_ranges(9, 9, [&](std::size_t, std::size_t) { calls++; });
  EXPECT_EQ(calls, 0);
}

// A parallel_for issued from inside a worker must run inline rather than
// submit-and-wait (which could deadlock with every worker blocked). This is
// what lets the gemm kernels call parallel_for unconditionally even when
// the trainer already fanned device work across the pool.
TEST(ParallelFor, NestedInsideWorkerRunsInline) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(4 * 100);
  pool.parallel_for(0, 4, [&](std::size_t outer) {
    EXPECT_TRUE(ThreadPool::in_worker());
    pool.parallel_for(0, 100, [&, outer](std::size_t inner) {
      hits[outer * 100 + inner]++;
    });
  });
  EXPECT_FALSE(ThreadPool::in_worker());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// The other half of what per-thread kernel scratch (tensor/arena.h) rests
// on: a thread that fans out waits for its chunks without running any of
// them, so a chunk never runs inside a kernel call on the same thread.
TEST(ParallelFor, CallerRunsNoneOfItsChunks) {
  ThreadPool pool(3);
  std::vector<std::thread::id> ran_on(60);
  pool.parallel_for(0, ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran_on) EXPECT_NE(id, std::this_thread::get_id());
}

TEST(ThreadPool, ResetGlobalChangesSizeAndRestores) {
  ThreadPool::reset_global(3);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  auto f = ThreadPool::global().submit([] { return 5; });
  EXPECT_EQ(f.get(), 5);
  ThreadPool::reset_global(0);
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPool, GlobalPoolIsUsable) {
  auto f = ThreadPool::global().submit([] { return 7; });
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&counter] { counter++; });
    }
  }  // destructor must wait for all 50
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace fedvr::util
