// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// experiment harness: GEMM, im2col, the vector ops in the solver's inner
// loop, the prox step, the finite check, and one full local solve on both
// tasks. Not tied to a paper table; used to track substrate performance.
//
// Every benchmark whose timed code can fan out on the thread pool is
// marked UseRealTime(): its rate must come from wall time, not from the
// CPU time of a main thread that sleeps while the workers compute.
#include <benchmark/benchmark.h>

#include <memory>
#include <span>
#include <vector>

#include "check/check.h"
#include "common/micro_main.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "opt/local_solver.h"
#include "tensor/aligned.h"
#include "tensor/im2col.h"
#include "tensor/kernels.h"
#include "tensor/vecops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace fedvr;

void BM_GemmSquare(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kNo, n, n, n, 1.0,
                        a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmSquare)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->UseRealTime();

// The exact GEMM shapes the CNN's conv layers hit through im2col:
// m = out_channels, n = out_pixels, k = col_rows. Range(0) selects the layer.
void BM_GemmConvShape(benchmark::State& state) {
  const tensor::ConvGeometry g =
      state.range(0) == 1
          ? tensor::ConvGeometry{.channels = 1,
                                 .height = 28,
                                 .width = 28,
                                 .kernel_h = 5,
                                 .kernel_w = 5,
                                 .pad = 2,
                                 .stride = 1}
          : tensor::ConvGeometry{.channels = 32,
                                 .height = 14,
                                 .width = 14,
                                 .kernel_h = 5,
                                 .kernel_w = 5,
                                 .pad = 2,
                                 .stride = 1};
  const std::size_t m = state.range(0) == 1 ? 32 : 64;  // out channels
  const std::size_t n = g.out_pixels();
  const std::size_t k = g.col_rows();
  util::Rng rng(4);
  std::vector<double> w(m * k), cols(k * n), out(m * n);
  for (auto& v : w) v = rng.normal();
  for (auto& v : cols) v = rng.normal();
  for (auto _ : state) {
    tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kNo, m, n, k, 1.0,
                        w, cols, 0.0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * n * k));
}
BENCHMARK(BM_GemmConvShape)->Arg(1)->Arg(2)->UseRealTime();

// The GEMMs of a 784 -> 10 Dense layer (convex_fig2's logistic regression)
// at batch 32 and at the 64-sample eval chunk. Range(0) selects the call:
// 0 = forward y = x W^T (32 x 10 x 784, the dot path), 1 = the same over an
// eval chunk (64 x 10 x 784), 2 = dW += dy^T x (10 x 784 x 32, the A^T*B
// path). Range(1) places every operand that many bytes past a cache line:
// 0 is where tensor::AlignedVector puts it, 16 is where malloc's 16-byte
// alignment can leave a std::vector<double>.
void BM_GemmDenseShape(benchmark::State& state) {
  constexpr std::size_t in = 784, out = 10;
  const bool dw = state.range(0) == 2;
  const std::size_t batch = state.range(0) == 1 ? 64 : 32;
  const std::size_t m = dw ? out : batch;
  const std::size_t n = dw ? in : out;
  const std::size_t k = dw ? batch : in;
  const auto shift = static_cast<std::size_t>(state.range(1)) / sizeof(double);
  tensor::AlignedVector<double> a_buf(shift + m * k), b_buf(shift + k * n),
      c_buf(shift + m * n);
  const auto a = std::span<double>(a_buf).subspan(shift);
  const auto b = std::span<double>(b_buf).subspan(shift);
  const auto c = std::span<double>(c_buf).subspan(shift);
  util::Rng rng(6);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    if (dw) {
      tensor::gemm_packed(tensor::Trans::kYes, tensor::Trans::kNo, m, n, k,
                          1.0, a, b, 1.0, c);
    } else {
      tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kYes, m, n, k,
                          1.0, a, b, 0.0, c);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * n * k));
}
BENCHMARK(BM_GemmDenseShape)
    ->ArgsProduct({{0, 1, 2},  // forward batch 32, eval chunk 64, dW
                   {0, 16}})   // operand bytes past a cache line
    ->UseRealTime();

// The small-product GEMMs (m * n * k < 32^3) of a 60 -> 10 Dense layer, the
// logistic model of fleet_sampled and the ProxSkip-VR probe. Range(0)
// selects the call: 0 = forward y = x W^T at batch 8 (8 x 10 x 60), 1 = dW
// += dy^T x at batch 8 (10 x 60 x 8), 2 = the forward over a 25-sample eval
// shard (25 x 10 x 60).
void BM_GemmSmallShape(benchmark::State& state) {
  constexpr std::size_t in = 60, out = 10;
  const bool dw = state.range(0) == 1;
  const std::size_t batch = state.range(0) == 2 ? 25 : 8;
  const std::size_t m = dw ? out : batch;
  const std::size_t n = dw ? in : out;
  const std::size_t k = dw ? batch : in;
  util::Rng rng(7);
  std::vector<double> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    if (dw) {
      tensor::gemm_packed(tensor::Trans::kYes, tensor::Trans::kNo, m, n, k,
                          1.0, a, b, 1.0, c);
    } else {
      tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kYes, m, n, k,
                          1.0, a, b, 0.0, c);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * m * n * k));
}
BENCHMARK(BM_GemmSmallShape)
    ->Arg(0)   // forward, batch 8
    ->Arg(1)   // dW, batch 8
    ->Arg(2)   // forward, eval shard of 25
    ->UseRealTime();

// Same 256^3 GEMM with the global pool pinned to range(1) threads (0 =
// hardware default), to expose the threaded-vs-serial kernel speedup.
// reset_global is safe here: benchmarks run one at a time, nothing else is
// in flight.
void BM_GemmPoolSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::ThreadPool::reset_global(static_cast<std::size_t>(state.range(1)));
  util::Rng rng(1);
  std::vector<double> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kNo, n, n, n, 1.0,
                        a, b, 0.0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
  util::ThreadPool::reset_global(0);
}
BENCHMARK(BM_GemmPoolSize)
    ->Args({256, 1})  // serial kernel
    ->Args({256, 0})  // full hardware pool
    ->UseRealTime();

void BM_Im2col28x28(benchmark::State& state) {
  tensor::ConvGeometry g{.channels = 1,
                         .height = 28,
                         .width = 28,
                         .kernel_h = 5,
                         .kernel_w = 5,
                         .pad = 2,
                         .stride = 1};
  util::Rng rng(2);
  std::vector<double> image(g.image_size());
  for (auto& v : image) v = rng.uniform();
  std::vector<double> cols(g.col_rows() * g.out_pixels());
  for (auto _ : state) {
    tensor::im2col(g, image, cols);
    benchmark::DoNotOptimize(cols.data());
  }
}
BENCHMARK(BM_Im2col28x28);

// The solver's line-8 step w^(t+1) = prox(w^(t) - eta v^(t)), one pass.
void BM_AxpyProxStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<double> w(n), v(n), anchor(n), out(n);
  for (auto& x : w) x = rng.normal();
  for (auto& x : v) x = rng.normal();
  for (auto& x : anchor) x = rng.normal();
  for (auto _ : state) {
    tensor::prox_gradient_step(w, v, anchor, 0.01, 0.5, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AxpyProxStep)->Arg(1 << 10)->Arg(1 << 16);

// FEDVR_CHECK_FINITE's scan over a clean vector (7850: the 784->10 logistic
// model's parameter count).
void BM_FirstNonFinite(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check::first_non_finite(v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FirstNonFinite)->Arg(1024)->Arg(7850)->Arg(65536);

// range(0) is the input dim: 60 (the synthetic task) or 784 (convex_fig2's
// 28x28 images).
void BM_LogisticMinibatchGradient(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const std::size_t classes = 10, batch = 32;
  const auto model = nn::make_logistic_regression(dim, classes);
  data::SyntheticConfig cfg;
  cfg.dim = dim;
  cfg.num_classes = classes;
  const auto ds = data::make_synthetic_device(cfg, 0, 256);
  util::Rng rng(5);
  auto w = model->initial_parameters(rng);
  std::vector<double> grad(w.size());
  std::vector<std::size_t> idx(batch);
  for (auto& i : idx) i = rng.below(ds.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->loss_and_gradient(w, ds, idx, grad));
  }
}
BENCHMARK(BM_LogisticMinibatchGradient)->Arg(60)->Arg(784)->UseRealTime();

void BM_CnnMinibatchGradient(benchmark::State& state) {
  nn::CnnConfig cfg;
  cfg.side = 12;
  cfg.conv1_channels = 8;
  cfg.conv2_channels = 16;
  const auto model = nn::make_two_layer_cnn(cfg);
  data::Dataset ds(tensor::Shape({1, 12, 12}), 64, 10);
  util::Rng rng(7);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (auto& v : ds.mutable_sample(i)) v = rng.uniform();
    ds.set_label(i, static_cast<int>(rng.below(10)));
  }
  auto w = model->initial_parameters(rng);
  std::vector<double> grad(w.size());
  std::vector<std::size_t> idx(8);
  for (auto& i : idx) i = rng.below(ds.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->loss_and_gradient(w, ds, idx, grad));
  }
}
BENCHMARK(BM_CnnMinibatchGradient)->UseRealTime();

// One local solve: range(0) picks the estimator, range(1) the input dim.
// At 60 the shard has 200 samples; at 784 the solve is convex_fig2's
// (Fig. 2(b): a 270-sample shard, B = 32, tau = 20, SVRG).
void BM_LocalSolverRound(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(1));
  const std::size_t classes = 10;
  const auto model = nn::make_logistic_regression(dim, classes);
  data::SyntheticConfig cfg;
  cfg.dim = dim;
  cfg.num_classes = classes;
  const auto ds = data::make_synthetic_device(cfg, 0, dim == 60 ? 200 : 270);
  opt::LocalSolverOptions opts;
  opts.estimator =
      state.range(0) == 0 ? opt::Estimator::kSgd
      : state.range(0) == 1 ? opt::Estimator::kSvrg
                            : opt::Estimator::kSarah;
  opts.tau = 20;
  opts.eta = 0.01;
  opts.mu = 0.1;
  opts.batch_size = 32;
  const opt::LocalSolver solver(model, opts);
  util::Rng rng(9);
  const auto anchor = model->initial_parameters(rng);
  for (auto _ : state) {
    util::Rng inner(11);
    benchmark::DoNotOptimize(solver.solve(ds, anchor, inner));
  }
}
BENCHMARK(BM_LocalSolverRound)
    ->Args({0, 60})   // SGD
    ->Args({1, 60})   // SVRG
    ->Args({2, 60})   // SARAH
    ->Args({1, 784})  // SVRG, convex_fig2's solve
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return fedvr::bench::run_micro_benchmarks(argc, argv);
}
