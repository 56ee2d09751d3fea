// Per-thread kernel scratch (tensor/arena.h): the spans scratch() hands
// out start on a cache line, a buffer keeps its storage once it has met its
// largest request, and each thread keeps buffers of its own.
#include <algorithm>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"

namespace fedvr::tensor {
namespace {

bool aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kCacheLine == 0;
}

// A kernel-style site: one buffer per calling thread.
std::span<double> thread_scratch(std::size_t n) {
  thread_local AlignedVector<double> buf;
  return scratch(buf, n);
}

TEST(Scratch, SpansStartOnACacheLine) {
  for (std::size_t n : {1, 3, 8, 9, 100, 4096, 12345}) {
    AlignedVector<double> buf;
    const auto s = scratch(buf, n);
    EXPECT_EQ(s.size(), n);
    EXPECT_TRUE(aligned(s.data())) << n;
  }
}

TEST(Scratch, FirstRequestGrowsOnceWarmRequestReturnsTheSameStorage) {
  AlignedVector<double> buf;
  const std::uint64_t before = arena_heap_events();
  const auto first = scratch(buf, 500);
  EXPECT_EQ(arena_heap_events(), before + 1);
  const auto again = scratch(buf, 500);
  EXPECT_EQ(again.data(), first.data());
  EXPECT_EQ(again.size(), 500U);
  EXPECT_EQ(arena_heap_events(), before + 1);
}

TEST(Scratch, SmallerRequestAfterALargerOneKeepsTheStorage) {
  AlignedVector<double> buf;
  const double* storage = scratch(buf, 4096).data();
  const std::size_t capacity = buf.capacity();
  const std::uint64_t before = arena_heap_events();
  for (std::size_t n : {16, 4000, 1, 4096}) {
    const auto s = scratch(buf, n);
    EXPECT_EQ(s.data(), storage) << n;
    EXPECT_EQ(s.size(), n);
  }
  // No trim: the buffer neither shrank nor moved.
  EXPECT_EQ(buf.capacity(), capacity);
  EXPECT_EQ(arena_heap_events(), before);
  // A request above the largest one so far grows the buffer.
  EXPECT_EQ(scratch(buf, 4097).size(), 4097U);
  EXPECT_EQ(arena_heap_events(), before + 1);
}

TEST(Scratch, ThreadsGetDistinctBuffers) {
  const auto mine = thread_scratch(64);
  std::fill(mine.begin(), mine.end(), 1.0);
  EXPECT_EQ(thread_scratch(64).data(), mine.data());
  const double* theirs = nullptr;
  std::thread([&theirs] {
    const auto s = thread_scratch(64);
    std::fill(s.begin(), s.end(), 2.0);
    theirs = s.data();
  }).join();
  EXPECT_NE(theirs, mine.data());
  for (double v : mine) EXPECT_EQ(v, 1.0);
}

// On a pool worker, where the kernels' fan-outs run inline, a warm blocked
// GEMM and a warm small GEMM that packs both operands grow no scratch.
TEST(Scratch, WarmGemmGrowsNoScratch) {
  const std::size_t big = 64;
  const std::size_t small = 8;
  std::vector<double> a(big * big, 0.5);
  std::vector<double> b(big * big, 0.25);
  std::vector<double> c(big * big);
  const auto run = [&] {
    gemm_packed(Trans::kNo, Trans::kNo, big, big, big, 1.0, a, b, 0.0, c);
    gemm_packed(Trans::kYes, Trans::kYes, small, small, small, 1.0, a, b,
                0.0, c);
  };
  util::ThreadPool pool(1);
  const std::uint64_t grown = pool.submit([&] {
                                    run();
                                    const std::uint64_t before =
                                        arena_heap_events();
                                    run();
                                    return arena_heap_events() - before;
                                  })
                                  .get();
  EXPECT_EQ(grown, 0U);
  EXPECT_EQ(c[0], static_cast<double>(small) * 0.5 * 0.25);
}

}  // namespace
}  // namespace fedvr::tensor
