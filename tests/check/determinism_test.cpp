// Determinism regression: two identical Trainer runs (same seed, invariant
// checks enabled, device-parallel execution) must produce bit-identical
// parameter vectors and traces — verified through the check::hash_span
// fingerprints the trainer records. This is the reproducibility claim the
// fedvr::check layer exists to audit: thread scheduling, profiling, and
// NaN-guard scans must all leave the numerics untouched.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/check.h"
#include "data/synthetic.h"
#include "fl/trainer.h"
#include "opt/local_solver.h"
#include "testing/dense_relu_dense.h"
#include "testing/quadratic_model.h"
#include "util/thread_pool.h"

namespace fedvr::fl {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;

constexpr std::size_t kDim = 6;

data::FederatedDataset heterogeneous_fed() {
  data::FederatedDataset fed;
  // Four devices, unequal sizes and centers: heterogeneous enough that a
  // scheduling-dependent aggregation order would actually change bits.
  fed.train.push_back(quadratic_dataset(17, kDim, -1.0, 0.3, 11));
  fed.train.push_back(quadratic_dataset(8, kDim, 2.0, 0.3, 22));
  fed.train.push_back(quadratic_dataset(29, kDim, 0.5, 0.3, 33));
  fed.train.push_back(quadratic_dataset(12, kDim, -0.25, 0.3, 44));
  for (std::size_t n = 0; n < 4; ++n) {
    fed.test.push_back(quadratic_dataset(6, kDim, 0.0, 0.3, 100 + n));
  }
  return fed;
}

opt::LocalSolver svrg_solver(const std::shared_ptr<const nn::Model>& model) {
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kSvrg;
  o.tau = 12;
  o.batch_size = 3;
  o.eta = 0.05;
  o.mu = 0.1;
  return opt::LocalSolver(model, o);
}

TrainingTrace run_once(const TrainerOptions& options) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = heterogeneous_fed();
  const Trainer trainer(model, fed, options);
  return trainer.run(svrg_solver(model), "determinism");
}

TrainerOptions base_options() {
  TrainerOptions options;
  options.rounds = 8;
  options.seed = 42;
  options.parallel = true;
  return options;
}

void expect_hash_equal_traces(const TrainingTrace& a,
                              const TrainingTrace& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  ASSERT_NE(a.final_param_hash, 0U);
  EXPECT_EQ(a.final_param_hash, b.final_param_hash);
  EXPECT_EQ(a.final_parameters, b.final_parameters);  // bitwise, not "near"
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].param_hash, b.rounds[i].param_hash)
        << "first divergent round: " << a.rounds[i].round;
    EXPECT_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
    EXPECT_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
  }
}

TEST(Determinism, IdenticalSeededRunsAreHashEqual) {
  const bool previous = check::set_enabled(true);
  const auto a = run_once(base_options());
  const auto b = run_once(base_options());
  check::set_enabled(previous);
  expect_hash_equal_traces(a, b);
}

TEST(Determinism, SerialAndParallelExecutionAgree) {
  const bool previous = check::set_enabled(true);
  const auto parallel = run_once(base_options());
  TrainerOptions serial_opts = base_options();
  serial_opts.parallel = false;
  const auto serial = run_once(serial_opts);
  check::set_enabled(previous);
  expect_hash_equal_traces(parallel, serial);
}

TEST(Determinism, ProfilingDoesNotPerturbParameters) {
  const bool previous = check::set_enabled(true);
  const auto plain = run_once(base_options());
  TrainerOptions profiled_opts = base_options();
  profiled_opts.observability.enabled = true;
  const auto profiled = run_once(profiled_opts);
  check::set_enabled(previous);
  // Wall-clock fields differ; the model trajectory must not.
  ASSERT_EQ(plain.rounds.size(), profiled.rounds.size());
  EXPECT_EQ(plain.final_param_hash, profiled.final_param_hash);
  for (std::size_t i = 0; i < plain.rounds.size(); ++i) {
    EXPECT_EQ(plain.rounds[i].param_hash, profiled.rounds[i].param_hash);
  }
}

// The kernel-level parallelism (blocked GEMM row-blocks, batched conv,
// parallel eval) must be invisible in the numerics: the same run on global
// pools of 1, 2, and hardware-default threads is bit-identical.
TEST(Determinism, HashEqualAcrossPoolSizes) {
  const bool previous = check::set_enabled(true);
  util::ThreadPool::reset_global(1);
  const auto one = run_once(base_options());
  util::ThreadPool::reset_global(2);
  const auto two = run_once(base_options());
  util::ThreadPool::reset_global(0);
  const auto dflt = run_once(base_options());
  check::set_enabled(previous);
  expect_hash_equal_traces(one, two);
  expect_hash_equal_traces(one, dflt);
}

// Same contract on a model big enough to engage the blocked parallel GEMM
// path (784-dim inputs: forward/backward products exceed the small-path
// volume threshold), so intra-kernel row-block scheduling is exercised, not
// just device-level fan-out.
TEST(Determinism, MlpRunHashEqualAcrossPoolSizes) {
  const auto run_mlp = [] {
    const auto model = fedvr::testing::dense_relu_dense(784, 32, 10);
    data::SyntheticConfig cfg;
    cfg.dim = 784;
    cfg.num_classes = 10;
    data::FederatedDataset fed;
    for (std::size_t n = 0; n < 3; ++n) {
      fed.train.push_back(data::make_synthetic_device(cfg, n, 60));
      fed.test.push_back(data::make_synthetic_device(cfg, 10 + n, 20));
    }
    TrainerOptions options;
    options.rounds = 2;
    options.seed = 42;
    options.parallel = true;
    const Trainer trainer(model, fed, options);
    return trainer.run(svrg_solver(model), "determinism-mlp");
  };
  const bool previous = check::set_enabled(true);
  util::ThreadPool::reset_global(1);
  const auto one = run_mlp();
  util::ThreadPool::reset_global(2);
  const auto two = run_mlp();
  util::ThreadPool::reset_global(0);
  check::set_enabled(previous);
  expect_hash_equal_traces(one, two);
}

TEST(Determinism, DifferentSeedsProduceDifferentHashes) {
  TrainerOptions other = base_options();
  other.seed = 43;
  const auto a = run_once(base_options());
  const auto b = run_once(other);
  EXPECT_NE(a.final_param_hash, b.final_param_hash);
}

}  // namespace
}  // namespace fedvr::fl
