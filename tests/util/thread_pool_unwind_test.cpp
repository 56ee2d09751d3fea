// parallel_for's chunks call through references into the caller's frame (the
// callable, parallel_ranges' type-erased wrapper and the fan-out's job
// record), so parallel_for must never return or throw while a chunk it
// enqueued may still run. This binary replaces the global operator new with
// one that can be armed to throw once on the calling thread, and fails each
// caller-side allocation of a two-chunk parallel_for in turn. A binary of
// its own: the replacement applies to the whole process.
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
// A warm fan-out allocates nothing (its chunks fit std::function's local
// buffer, and the task queue keeps its storage), so each call runs on a
// fresh pool of two workers that two blockers hold busy, with one filler
// task queued. Chunk 0 then takes the queue's last free slot and chunk 1's
// enqueue has to grow the queue: that is the allocation that fails, with
// chunk 0 still queued until a helper thread releases the blockers. Wherever
// parallel_for throws, every chunk that started must have finished, and no
// chunk may start after it returned or threw.
void sweep_failing_allocation() {
  using std::chrono::milliseconds;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  auto body = [&](std::size_t) {
    started.fetch_add(1);
    finished.fetch_add(1);
  };
  int throws = 0;
  for (long fail = 0; fail < 64; ++fail) {
    ThreadPool pool(2);
    pool.parallel_for(0, 2, body);  // warm: obs metric names
    std::atomic<bool> release{false};
    std::atomic<int> blocked{0};
    const auto blocker = [&] {
      blocked.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(milliseconds(1));
    };
    auto first = pool.submit(blocker);
    auto second = pool.submit(blocker);
    while (blocked.load() < 2) std::this_thread::yield();
    auto filler = pool.submit([] {});
    std::thread releaser([&] {
      std::this_thread::sleep_for(milliseconds(30));
      release.store(true);
    });
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
    releaser.join();
    first.get();
    second.get();
    filler.get();
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
