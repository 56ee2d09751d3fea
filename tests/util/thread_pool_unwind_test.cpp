// parallel_for's chunks call through references into the caller's frame (the
// callable and parallel_ranges' type-erased wrapper), so parallel_for must
// never return or throw while a chunk it enqueued may still run. This binary
// replaces the global operator new with one that can be armed to throw once
// on the calling thread, and fails each caller-side allocation of a warm
// two-chunk parallel_for in turn. A binary of its own: the replacement
// applies to the whole process.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

#include <gtest/gtest.h>

#include "obs/obs.h"
#include "util/thread_pool.h"

namespace {

// Allocations this thread may still make before the next one throws; -1
// means disarmed.
thread_local long t_allocs_before_throw = -1;

void* checked_malloc(std::size_t n) {
  if (t_allocs_before_throw >= 0 && t_allocs_before_throw-- == 0) {
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fedvr::util {
namespace {

// Fails the caller's 0th, 1st, 2nd, ... allocation of a two-chunk
// parallel_for until a call makes fewer allocations than that and returns.
// Chunk 0 sleeps, so when a later enqueue throws it is still queued or
// running. Wherever parallel_for throws, every chunk that started must
// have finished, and no chunk may start after it returned or threw.
void sweep_failing_allocation() {
  using std::chrono::milliseconds;
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  auto body = [&](std::size_t i) {
    started.fetch_add(1);
    if (i == 0) std::this_thread::sleep_for(milliseconds(30));
    finished.fetch_add(1);
  };
  pool.parallel_for(0, 2, body);  // warm: queue storage, obs metric names
  int throws = 0;
  for (long fail = 0; fail < 64; ++fail) {
    started = 0;
    finished = 0;
    t_allocs_before_throw = fail;
    bool threw = false;
    try {
      pool.parallel_for(0, 2, body);
    } catch (const std::bad_alloc&) {
      threw = true;
      EXPECT_EQ(started.load(), finished.load())
          << "a chunk was running when parallel_for threw at allocation "
          << fail;
    }
    t_allocs_before_throw = -1;
    const int at_exit = started.load();
    // A chunk left queued would start well within this.
    std::this_thread::sleep_for(milliseconds(60));
    EXPECT_EQ(started.load(), at_exit)
        << "a chunk started after parallel_for left, allocation " << fail;
    if (!threw) {
      EXPECT_EQ(finished.load(), 2);
      EXPECT_GT(throws, 0) << "parallel_for made no caller-side allocation";
      return;
    }
    ++throws;
  }
  ADD_FAILURE() << "parallel_for still threw after 64 failed allocations";
}

TEST(ThreadPoolUnwind, NoChunkOutlivesAThrowingParallelFor) {
  sweep_failing_allocation();
}

TEST(ThreadPoolUnwind, NoChunkOutlivesAThrowingParallelForWithObsOn) {
  const bool previous = obs::set_enabled(true);
  sweep_failing_allocation();
  obs::set_enabled(previous);
}

}  // namespace
}  // namespace fedvr::util
