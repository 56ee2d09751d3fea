// ProxSkip-VR: the shared skip coin, per-iteration byte accounting,
// convergence to the global quadratic optimum, and bit-identity across
// thread-pool sizes with compression, error feedback, and faults on.
#include "core/proxskip.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "comm/message.h"
#include "tensor/vecops.h"
#include "testing/quadratic_model.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedvr::core {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;
using fedvr::util::Error;

constexpr std::size_t kDim = 4;

data::FederatedDataset make_fed(std::size_t devices = 3) {
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < devices; ++d) {
    fed.train.push_back(quadratic_dataset(8 + d, kDim,
                                          static_cast<double>(d), 0.2,
                                          10 + d));
    fed.test.push_back(quadratic_dataset(4, kDim, static_cast<double>(d),
                                         0.2, 40 + d));
  }
  return fed;
}

// The global objective's unique minimizer: the pooled sample mean.
std::vector<double> pooled_mean(const data::FederatedDataset& fed) {
  std::vector<double> mean(kDim, 0.0);
  std::size_t total = 0;
  for (const auto& ds : fed.train) {
    for (std::size_t i = 0; i < ds.size(); ++i) {
      tensor::axpy(1.0, ds.sample(i), mean);
    }
    total += ds.size();
  }
  tensor::scal(1.0 / static_cast<double>(total), mean);
  return mean;
}

TEST(ProxSkipVR, ValidatesOptions) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = make_fed();
  ProxSkipVROptions bad;
  bad.skip_prob = 0.0;
  EXPECT_THROW((void)run_proxskip_vr(model, fed, bad), Error);
  bad = ProxSkipVROptions{};
  bad.step_size = -1.0;
  EXPECT_THROW((void)run_proxskip_vr(model, fed, bad), Error);
  // Corruption faults need the trainer's defense layer; reject them here.
  bad = ProxSkipVROptions{};
  fl::FaultModelConfig cfg;
  cfg.corrupt_prob = 0.5;
  bad.faults = fl::FaultModel(cfg);
  EXPECT_THROW((void)run_proxskip_vr(model, fed, bad), Error);
}

TEST(ProxSkipVR, ConvergesToGlobalOptimumAndMatchesCoinStream) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = make_fed();
  ProxSkipVROptions opts;
  opts.iterations = 300;
  opts.step_size = 0.3;
  opts.skip_prob = 0.2;
  opts.batch_size = 4;
  opts.eval_every = 1;
  opts.eval_initial = true;
  const auto trace = run_proxskip_vr(model, fed, opts, "ps");
  ASSERT_EQ(trace.rounds.size(), opts.iterations + 1);

  // Converges to the pooled-mean optimum despite skipping ~80% of rounds.
  const auto opt = pooled_mean(fed);
  for (std::size_t j = 0; j < kDim; ++j) {
    EXPECT_NEAR(trace.final_parameters[j], opt[j], 1e-3) << j;
  }
  EXPECT_LT(trace.back().train_loss, trace.rounds[0].train_loss);

  // Byte counters move exactly on the coin's heads: replay the documented
  // stream — fork(seed, 0, t, kComm) — and check the downlink ledger.
  const std::size_t msg =
      comm::wire_bytes(comm::DType::kFloat64, kDim, kDim, false);
  std::size_t heads = 0;
  for (std::size_t t = 1; t <= opts.iterations; ++t) {
    util::Rng coin = util::fork(opts.seed, 0, t, util::stream::kComm);
    if (coin.uniform() < opts.skip_prob) ++heads;
    const auto& m = trace.rounds[t];  // eval_every=1: entry per iteration
    EXPECT_EQ(m.downlink_bytes, heads * fed.num_devices() * msg) << t;
    EXPECT_EQ(m.uplink_bytes, heads * fed.num_devices() * msg) << t;
  }
  EXPECT_GT(heads, 0u);
  EXPECT_LT(heads, opts.iterations);  // it actually skipped rounds
}

TEST(ProxSkipVR, PEqualsOneCommunicatesEveryIteration) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = make_fed(2);
  ProxSkipVROptions opts;
  opts.iterations = 10;
  opts.skip_prob = 1.0;
  opts.step_size = 0.3;
  opts.eval_every = 1;
  const auto trace = run_proxskip_vr(model, fed, opts, "ps1");
  const std::size_t msg =
      comm::wire_bytes(comm::DType::kFloat64, kDim, kDim, false);
  for (std::size_t i = 0; i < trace.rounds.size(); ++i) {
    const std::size_t t = trace.rounds[i].round;
    EXPECT_EQ(trace.rounds[i].downlink_bytes, t * 2u * msg);
    // Every iteration pays d_com + d_cmp (tau = 1).
    EXPECT_NEAR(trace.rounds[i].model_time,
                static_cast<double>(t) * opts.timing.round_time(1), 1e-12);
  }
}

TEST(ProxSkipVR, BitIdenticalAcrossPoolSizesWithCompressionAndFaults) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = make_fed(4);
  ProxSkipVROptions opts;
  opts.iterations = 40;
  opts.step_size = 0.2;
  opts.skip_prob = 0.3;
  opts.eval_every = 5;
  opts.comm.compressor = std::make_shared<comm::TopKCompressor>(0.5);
  opts.comm.error_feedback = true;
  opts.comm.uplink_dtype = comm::DType::kInt8Block;
  opts.comm.byte_timing = true;
  fl::FaultModelConfig cfg;
  cfg.dropout_prob = 0.1;
  cfg.straggler_prob = 0.2;
  cfg.uplink_loss_prob = 0.2;
  opts.faults = fl::FaultModel(cfg);

  const auto run_with_pool = [&](std::size_t threads) {
    util::ThreadPool::reset_global(threads);
    return run_proxskip_vr(model, fed, opts, "ps-pool");
  };
  const auto serial = run_with_pool(1);
  const auto two = run_with_pool(2);
  const auto many = run_with_pool(0);
  util::ThreadPool::reset_global();

  ASSERT_EQ(serial.rounds.size(), many.rounds.size());
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    EXPECT_EQ(serial.rounds[i].param_hash, two.rounds[i].param_hash) << i;
    EXPECT_EQ(serial.rounds[i].param_hash, many.rounds[i].param_hash) << i;
    EXPECT_EQ(serial.rounds[i].uplink_bytes, many.rounds[i].uplink_bytes);
    EXPECT_EQ(serial.rounds[i].model_time, many.rounds[i].model_time) << i;
  }
  EXPECT_EQ(serial.final_param_hash, many.final_param_hash);
}

TEST(ProxSkipVR, SerialAndParallelFlagAgree) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = make_fed(3);
  ProxSkipVROptions opts;
  opts.iterations = 20;
  opts.skip_prob = 0.4;
  opts.eval_every = 4;
  auto serial_opts = opts;
  serial_opts.parallel = false;
  const auto a = run_proxskip_vr(model, fed, opts, "p");
  const auto b = run_proxskip_vr(model, fed, serial_opts, "p");
  EXPECT_EQ(a.final_param_hash, b.final_param_hash);
}

TEST(ProxSkipVR, RowsCarryNondecreasingWallSeconds) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = make_fed();
  ProxSkipVROptions opts;
  opts.iterations = 20;
  opts.eval_every = 2;
  opts.eval_initial = true;
  const auto trace = run_proxskip_vr(model, fed, opts, "wall");
  ASSERT_EQ(trace.rounds.size(), 11u);
  double prev = 0.0;
  for (const auto& m : trace.rounds) {
    EXPECT_GT(m.wall_seconds, 0.0) << "iteration " << m.round;
    EXPECT_GE(m.wall_seconds, prev) << "iteration " << m.round;
    prev = m.wall_seconds;
  }
}

TEST(ProxSkipVR, TargetAccuracyCanStopAtRoundZero) {
  // Regression (shared with the trainer): a starting model that already
  // meets target_accuracy must end the run at the round-0 evaluation, not
  // after one paid iteration.
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = make_fed(2);
  ProxSkipVROptions opts;
  opts.iterations = 100;
  opts.eval_every = 1;
  opts.eval_initial = true;
  opts.target_accuracy = 0.0;  // any model qualifies, w̄^(0) included
  const std::vector<double> w0(kDim, 0.5);
  const auto trace = run_proxskip_vr(model, fed, opts, "stop0", w0);
  ASSERT_EQ(trace.rounds.size(), 1u);
  EXPECT_EQ(trace.rounds.front().round, 0u);
  // No iteration ran: the final model is the (weighted average of the)
  // starting point — equal to w0 up to the D_n/D summation rounding.
  ASSERT_EQ(trace.final_parameters.size(), w0.size());
  for (std::size_t j = 0; j < w0.size(); ++j) {
    EXPECT_NEAR(trace.final_parameters[j], w0[j], 1e-15);
  }
}

}  // namespace
}  // namespace fedvr::core
