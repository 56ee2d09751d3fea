// Concurrency stress for the lock-free observability primitives. These
// tests exist primarily for the ThreadSanitizer build (-DFEDVR_SANITIZE=
// thread): they hammer every relaxed-atomic site — the enable flag, sharded
// counters, the gauge CAS loop, registry registration, and the pool's own
// obs counters — from many threads at once, so a
// regression that introduces a real data race is flagged by TSan here even
// if the functional suites happen not to interleave the racy way.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/registry.h"
#include "util/thread_pool.h"

namespace fedvr::obs {
namespace {

using fedvr::util::ThreadPool;

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override { prev_ = set_enabled(false); }
  void TearDown() override { set_enabled(prev_); }
  bool prev_ = false;
};

TEST_F(ConcurrencyStressTest, CounterGaugeUnderContention) {
  Registry reg;
  Counter& c = reg.counter("stress.counter");
  Gauge& g = reg.gauge("stress.gauge");
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kIters; ++i) {
        c.add(1);
        g.add(1.0);
        if (i % 64 == 0) {
          (void)c.value();  // concurrent reads while writers are active
          (void)g.value();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Joins give the happens-before edge: totals must now be exact.
  EXPECT_EQ(c.value(), kThreads * kIters);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kIters));
}

TEST_F(ConcurrencyStressTest, RegistrationRacesResolveToOneMetric) {
  Registry reg;
  constexpr std::size_t kThreads = 8;
  std::vector<Counter*> handles(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter& c = reg.counter("stress.same_name");
      c.add(1);
      handles[t] = &c;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(handles[t], handles[0]);  // one metric, stable handle
  }
  EXPECT_EQ(handles[0]->value(), kThreads);
}

TEST_F(ConcurrencyStressTest, EnableToggleRacesInstrumentation) {
  // Flip the global flag while pool workers run instrumented tasks: stale
  // reads of the flag may skip or record a few samples, but must never
  // race. The final counter value is whatever it is — the assertion here
  // is TSan's, not gtest's.
  ThreadPool pool(4);
  std::thread toggler([] {
    for (int i = 0; i < 200; ++i) {
      set_enabled(i % 2 == 0);
      std::this_thread::yield();
    }
    set_enabled(false);
  });
  for (int repeat = 0; repeat < 20; ++repeat) {
    pool.parallel_for(0, 256, [](std::size_t i) {
      FEDVR_OBS_COUNT("stress.toggle_races", 1);
      (void)now_ns();
      (void)i;
    });
  }
  toggler.join();
}

TEST_F(ConcurrencyStressTest, SnapshotWhileWritersActive) {
  set_enabled(true);
  Registry reg;
  Counter& c = reg.counter("stress.snap");
  std::thread writer([&] {
    for (std::size_t i = 0; i < 20000; ++i) c.add(1);
  });
  for (int i = 0; i < 50; ++i) {
    const auto snap = reg.snapshot();  // mutex-guarded walk + relaxed reads
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_LE(snap.counters[0].value, 20000u);
  }
  writer.join();
  EXPECT_EQ(c.value(), 20000u);
}

}  // namespace
}  // namespace fedvr::obs
