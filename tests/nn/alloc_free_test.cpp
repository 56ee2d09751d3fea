// Steady-state heap-allocation regression test for the model gradient path
// and the local solve around it.
//
// This binary links the counting operator new / delete of
// testing/alloc_counter.cpp, so it is kept apart from every other suite.
// Each case warms a model or a solver on a fresh pool worker (where the
// kernels' parallel_for runs inline, as inside a device's local solve) and
// asserts that the third call makes no heap allocation at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/models.h"
#include "opt/local_solver.h"
#include "testing/alloc_counter.h"
#include "testing/dense_relu_dense.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedvr::nn {
namespace {

std::uint64_t allocations() { return testing::heap_allocations(); }

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
  const auto model = testing::dense_relu_dense(784, 64, 10);
  EXPECT_EQ(third_call_allocations(*model, ds, 32), 0u);
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

// A conv backward that holds more than 8 MiB of scratch at once: 64 rows
// of this CNN need about 9.8 MB of conv2 weight-gradient partials, as the
// paper's 28x28 32/64 CNN holds about 8.4 MB at 64 rows. Kernel scratch
// that shrank back to 8 MiB after each smaller pass regrew in every call
// (902 allocations and 103 MB per warm call of the paper's CNN). The 4x4
// input keeps the arithmetic small; the partials grow with the channels.
TEST(AllocFree, CnnGradientAboveEightMiBOfScratch) {
  util::Rng rng(5);
  const auto ds = random_dataset(tensor::Shape({1, 4, 4}), 64, 10, rng);
  CnnConfig cfg;
  cfg.side = 4;
  cfg.conv1_channels = 48;
  cfg.conv2_channels = 64;
  EXPECT_EQ(third_call_allocations(*make_two_layer_cnn(cfg), ds, 64), 0u);
}

// The eval's per-device calls read the whole shard through the thread's
// identity index span, so a warm call builds no index vector.
TEST(AllocFree, FullBatchLossAndGradient) {
  util::Rng rng(4);
  const auto ds = random_dataset(tensor::Shape({60}), 150, 10, rng);
  const auto model = make_logistic_regression(60, 10);
  std::vector<double> w(model->num_parameters());
  model->initialize(rng, w);
  std::vector<double> grad(w.size());
  util::ThreadPool pool(1);
  const auto third = [&](const auto& call) {
    return pool
        .submit([&] {
          for (int warm = 0; warm < 2; ++warm) call();
          const std::uint64_t before = allocations();
          call();
          return allocations() - before;
        })
        .get();
  };
  EXPECT_EQ(third([&] { (void)model->full_loss(w, ds); }), 0u);
  EXPECT_EQ(third([&] { (void)model->full_gradient(w, ds, grad); }), 0u);
}

// ProxSkip-VR's anchor half: a device's mini-batch of gathered draws
// replayed from the record of its last anchor gradient.
TEST(AllocFree, ReplayedGradient) {
  util::Rng rng(29);
  const auto ds = random_dataset(tensor::Shape({60}), 150, 10, rng);
  const auto model = make_logistic_regression(60, 10, 0.01);
  ASSERT_TRUE(model->replays());
  std::vector<double> w(model->num_parameters());
  model->initialize(rng, w);
  std::vector<double> grad(w.size());
  const std::vector<std::size_t> draws = {7, 7, 149, 0, 64, 63, 12, 88};
  util::ThreadPool pool(1);
  const std::uint64_t made =
      pool.submit([&] {
            GradientRecord record;
            for (int warm = 0; warm < 2; ++warm) {
              (void)model->record_gradient(w, ds, grad, record);
              model->replay_gradient(w, ds, draws, record, draws, grad);
            }
            const std::uint64_t before = allocations();
            (void)model->record_gradient(w, ds, grad, record);
            model->replay_gradient(w, ds, draws, record, draws, grad);
            return allocations() - before;
          })
          .get();
  EXPECT_EQ(made, 0u);
}

// Heap allocations made by the third LocalSolver::solve on one warm
// SolverWorkspace, run on a pool worker. A logistic model replays its
// anchor record in every SVRG step.
std::uint64_t third_solve_allocations(std::size_t dim, std::size_t batch,
                                      opt::Estimator estimator) {
  util::Rng rng(31);
  const auto ds = random_dataset(tensor::Shape({dim}), 270, 10, rng);
  const auto model = make_logistic_regression(dim, 10);
  EXPECT_TRUE(model->replays());
  opt::LocalSolverOptions opts;
  opts.estimator = estimator;
  opts.tau = 20;
  opts.eta = 0.01;
  opts.mu = 0.1;
  opts.batch_size = batch;
  const opt::LocalSolver solver(model, opts);
  std::vector<double> anchor(model->num_parameters());
  model->initialize(rng, anchor);
  util::ThreadPool pool(1);
  return pool
      .submit([&] {
        opt::SolverWorkspace ws;
        std::vector<double> w_out;
        util::Rng draws(41);
        for (int warm = 0; warm < 2; ++warm) {
          (void)solver.solve(ds, anchor, draws, ws, w_out);
        }
        const std::uint64_t before = allocations();
        (void)solver.solve(ds, anchor, draws, ws, w_out);
        return allocations() - before;
      })
      .get();
}

TEST(AllocFree, WarmSvrgSolve) {
  EXPECT_EQ(third_solve_allocations(784, 32, opt::Estimator::kSvrg), 0u);
  EXPECT_EQ(third_solve_allocations(60, 8, opt::Estimator::kSvrg), 0u);
}

TEST(AllocFree, WarmSarahSolve) {
  EXPECT_EQ(third_solve_allocations(784, 32, opt::Estimator::kSarah), 0u);
  EXPECT_EQ(third_solve_allocations(60, 8, opt::Estimator::kSarah), 0u);
}

}  // namespace
}  // namespace fedvr::nn
