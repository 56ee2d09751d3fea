// Steady-state heap-allocation regression test for the model gradient path.
//
// This binary replaces the global operator new / delete with counting
// versions, so it is kept apart from every other suite. Each case warms a
// model on a fresh pool worker (where the kernels' parallel_for runs
// inline, as inside a device's local solve) and asserts that the third
// loss_and_gradient on the same batch makes no heap allocation at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/models.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned(n, a)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace fedvr::nn {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

data::Dataset random_dataset(tensor::Shape shape, std::size_t n,
                             std::size_t classes, util::Rng& rng) {
  data::Dataset ds(shape, n, classes);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& v : ds.mutable_sample(i)) v = rng.normal();
    ds.set_label(i, static_cast<int>(i % classes));
  }
  return ds;
}

// Heap allocations made by the third loss_and_gradient on a batch of the
// first `batch` samples, run on a pool worker.
std::uint64_t third_call_allocations(const Model& model,
                                     const data::Dataset& ds,
                                     std::size_t batch) {
  util::Rng rng(21);
  std::vector<double> w(model.num_parameters());
  model.initialize(rng, w);
  std::vector<double> grad(w.size());
  std::vector<std::size_t> indices(batch);
  std::iota(indices.begin(), indices.end(), 0);
  util::ThreadPool pool(1);
  return pool
      .submit([&] {
        for (int warm = 0; warm < 2; ++warm) {
          (void)model.loss_and_gradient(w, ds, indices, grad);
        }
        const std::uint64_t before = allocations();
        (void)model.loss_and_gradient(w, ds, indices, grad);
        return allocations() - before;
      })
      .get();
}

TEST(AllocFree, CounterSeesOperatorNew) {
  const std::uint64_t before = allocations();
  const std::string text(static_cast<std::size_t>(before % 7) + 100, 'x');
  EXPECT_GE(allocations() - before, 1u) << text.size();
}

TEST(AllocFree, LogisticRegressionGradient) {
  util::Rng rng(1);
  const auto ds = random_dataset(tensor::Shape({784}), 240, 10, rng);
  const auto model = make_logistic_regression(784, 10);
  EXPECT_EQ(third_call_allocations(*model, ds, 32), 0u);
  // Beyond max_chunk rows the model walks the batch in chunks.
  EXPECT_EQ(third_call_allocations(*model, ds, 240), 0u);
}

TEST(AllocFree, MlpGradient) {
  util::Rng rng(2);
  const auto ds = random_dataset(tensor::Shape({784}), 32, 10, rng);
  MlpConfig cfg;
  cfg.hidden = {64};
  EXPECT_EQ(third_call_allocations(*make_mlp(cfg), ds, 32), 0u);
}

TEST(AllocFree, SmallCnnGradient) {
  util::Rng rng(3);
  const auto ds = random_dataset(tensor::Shape({1, 12, 12}), 8, 10, rng);
  CnnConfig cfg;
  cfg.side = 12;
  cfg.conv1_channels = 4;
  cfg.conv2_channels = 8;
  EXPECT_EQ(third_call_allocations(*make_two_layer_cnn(cfg), ds, 8), 0u);
}

}  // namespace
}  // namespace fedvr::nn
