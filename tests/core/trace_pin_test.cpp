// Cross-commit trace pins for both round engines: fl::Trainer (FedProxVR)
// and core::run_proxskip_vr. Every other determinism test compares two runs
// of one build; these compare a run against literals recorded from an
// earlier build, so a refactor that changes any reported number — a
// counter, a byte total, a model-time charge, one bit of a parameter —
// fails here.
//
// The fingerprint hashes every RoundMetrics field of every row except the
// two wall-clock measurements (wall_seconds, measured). The inputs avoid
// libm transcendentals on purpose: the samples are written out as exact
// binary fractions and w0 is explicit (no Box–Muller draws, no seeded
// initialize()), so the rest of the path is plain loops and vecops whose
// results are the same at every optimization level and on every CI leg.
//
// The last three pins run real models through tensor::gemm: a 784 -> 10
// logistic regression under both engines (Dense's forward on the dot path,
// its dW on the A^T*B path) and a small CNN whose conv GEMMs take the
// blocked path. Their literals hold in every build type and on every
// kernel variant, because each GEMM path has one FMA arithmetic. Their
// softmax goes through glibc's exp and log, so they were checked with
// glibc 2.36 only.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "check/check.h"
#include "comm/compression.h"
#include "core/proxskip.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "testing/quadratic_model.h"
#include "util/rng.h"

namespace fedvr::core {
namespace {

using fedvr::testing::QuadraticModel;

constexpr std::size_t kDim = 4;

// Device d holds `base + d` samples whose coordinates are quarter-integer
// offsets around d/2 — exact in binary, distinct across devices.
data::Dataset samples(std::size_t n, std::size_t device, std::size_t salt) {
  data::Dataset ds(tensor::Shape({kDim}), n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    auto x = ds.mutable_sample(i);
    for (std::size_t j = 0; j < kDim; ++j) {
      const std::size_t code = (3 * i + 5 * j + 7 * device + salt) % 13;
      x[j] = 0.25 * static_cast<double>(code) - 1.5 +
             0.5 * static_cast<double>(device);
    }
    ds.set_label(i, static_cast<int>(i % 2));
  }
  return ds;
}

data::FederatedDataset fixture(std::size_t devices, std::size_t base) {
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < devices; ++d) {
    fed.train.push_back(samples(base + d, d, 0));
    fed.test.push_back(samples(4, d, 6));
  }
  return fed;
}

const std::vector<double> kW0 = {0.5, -0.25, 1.0, 0.0};

// Splits a 64-bit counter into two exactly representable doubles.
void push_u64(std::vector<double>& out, std::uint64_t v) {
  out.push_back(static_cast<double>(v >> 32));
  out.push_back(static_cast<double>(v & 0xffffffffULL));
}

// check::hash_span over every row's RoundMetrics, minus the wall-clock
// fields (wall_seconds, measured).
std::uint64_t fingerprint(const fl::TrainingTrace& trace) {
  std::vector<double> f;
  for (const fl::RoundMetrics& m : trace.rounds) {
    push_u64(f, m.round);
    f.push_back(m.train_loss);
    f.push_back(m.test_accuracy);
    f.push_back(m.grad_norm_sq);
    f.push_back(m.model_time);
    f.push_back(m.mean_local_theta);
    push_u64(f, m.comm_bytes);
    push_u64(f, m.uplink_bytes);
    push_u64(f, m.downlink_bytes);
    push_u64(f, m.sample_grad_evals);
    push_u64(f, m.dropped_devices);
    push_u64(f, m.undelivered_updates);
    push_u64(f, m.straggler_devices);
    push_u64(f, m.uplink_retries);
    push_u64(f, m.deadline_misses);
    push_u64(f, m.corrupted_updates);
    push_u64(f, m.rejected_updates);
    push_u64(f, m.quarantined_device_rounds);
    f.push_back(m.realized_round_time);
    push_u64(f, m.param_hash);
  }
  return check::hash_span(f);
}

opt::LocalSolverOptions svrg_solver() {
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kSvrg;
  o.tau = 5;
  o.eta = 0.2;
  o.mu = 0.1;
  o.batch_size = 2;
  return o;
}

TEST(TracePin, FedProxVRFullParticipation) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = fixture(4, 6);
  fl::TrainerOptions opts;
  opts.rounds = 6;
  opts.seed = 3;
  const fl::Trainer trainer(model, fed, opts);
  const auto trace =
      trainer.run(opt::LocalSolver(model, svrg_solver()), "pin", kW0);
  ASSERT_EQ(trace.rounds.size(), 6u);
  EXPECT_EQ(trace.final_param_hash, 0x15610102f110dd51ULL);
  EXPECT_EQ(fingerprint(trace), 0x18bb304047db0ebaULL);
}

TEST(TracePin, FedProxVRSampledWithFaultsDefenseDeadlineAndCompression) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = fixture(8, 5);
  fl::TrainerOptions opts;
  opts.rounds = 12;
  opts.seed = 11;
  opts.eval_every = 2;
  opts.devices_per_round = 5;
  fl::FaultModelConfig faults;
  faults.dropout_prob = 0.15;
  faults.straggler_prob = 0.25;
  faults.uplink_loss_prob = 0.3;
  faults.corrupt_prob = 0.25;
  faults.corrupt_sign_weight = 0.0;
  faults.corrupt_scale_weight = 0.0;
  faults.corrupt_stale_weight = 0.0;
  opts.faults = fl::FaultModel(faults);
  opts.defense.quarantine_strikes = 1;
  opts.defense.quarantine_rounds = 2;
  // A straggler (1 + 0.1·4·5 = 3.0) makes it; one retry (3·1 + 0.5) does not.
  opts.round_deadline = 3.2;
  opts.comm.compressor = std::make_shared<comm::TopKCompressor>(0.5);
  opts.comm.error_feedback = true;
  opts.comm.uplink_dtype = comm::DType::kInt8Block;
  const fl::Trainer trainer(model, fed, opts);
  const auto trace =
      trainer.run(opt::LocalSolver(model, svrg_solver()), "pin", kW0);
  ASSERT_EQ(trace.rounds.size(), 6u);
  // The configuration exercises every path it claims to.
  const fl::RoundMetrics& last = trace.back();
  EXPECT_GT(last.dropped_devices, 0u);
  EXPECT_GT(last.straggler_devices, 0u);
  EXPECT_GT(last.uplink_retries, 0u);
  EXPECT_GT(last.deadline_misses, 0u);
  EXPECT_GT(last.rejected_updates, 0u);
  EXPECT_GT(last.quarantined_device_rounds, 0u);
  EXPECT_EQ(trace.final_param_hash, 0x297c6e6c4c74d247ULL);
  EXPECT_EQ(fingerprint(trace), 0x666ee1e79ffd9c21ULL);
}

TEST(TracePin, ProxSkipVRWithCompressionByteTimingAndFaults) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = fixture(4, 6);
  ProxSkipVROptions opts;
  opts.iterations = 40;
  opts.seed = 5;
  opts.step_size = 0.2;
  opts.skip_prob = 0.3;
  opts.batch_size = 3;
  opts.eval_every = 5;
  opts.eval_initial = true;
  opts.comm.compressor = std::make_shared<comm::TopKCompressor>(0.5);
  opts.comm.error_feedback = true;
  opts.comm.uplink_dtype = comm::DType::kInt8Block;
  opts.comm.byte_timing = true;
  fl::FaultModelConfig faults;
  faults.dropout_prob = 0.1;
  faults.straggler_prob = 0.2;
  faults.uplink_loss_prob = 0.2;
  opts.faults = fl::FaultModel(faults);
  const auto trace = run_proxskip_vr(model, fed, opts, "pin", kW0);
  ASSERT_EQ(trace.rounds.size(), 9u);
  const fl::RoundMetrics& last = trace.back();
  EXPECT_GT(last.dropped_devices, 0u);
  EXPECT_GT(last.straggler_devices, 0u);
  EXPECT_GT(last.uplink_retries, 0u);
  EXPECT_EQ(trace.final_param_hash, 0x1426ed22d7bbed24ULL);
  EXPECT_EQ(fingerprint(trace), 0xa7b81ff465b9c2daULL);
}

TEST(TracePin, ProxSkipVRHeadsRoundWithZeroSurvivors) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = fixture(2, 6);
  ProxSkipVROptions opts;
  opts.iterations = 30;
  opts.seed = 9;
  opts.step_size = 0.2;
  opts.skip_prob = 0.5;
  opts.batch_size = 2;
  opts.eval_every = 1;
  fl::FaultModelConfig faults;
  faults.dropout_prob = 0.5;
  faults.uplink_loss_prob = 0.5;
  faults.uplink_max_retries = 0;
  opts.faults = fl::FaultModel(faults);
  // Replay the documented coin and fault streams: at least one heads
  // iteration must lose every device (crashed or upload lost).
  std::size_t empty_heads = 0;
  for (std::size_t t = 1; t <= opts.iterations; ++t) {
    util::Rng coin = util::fork(opts.seed, 0, t, util::stream::kComm);
    if (coin.uniform() >= opts.skip_prob) continue;
    bool any = false;
    for (std::size_t n = 0; n < fed.num_devices(); ++n) {
      any = any || opts.faults.sample(opts.seed, n, t).delivers_update();
    }
    if (!any) ++empty_heads;
  }
  ASSERT_GT(empty_heads, 0u);
  const auto trace = run_proxskip_vr(model, fed, opts, "pin", kW0);
  ASSERT_EQ(trace.rounds.size(), 30u);
  EXPECT_EQ(trace.final_param_hash, 0x57be5ccae2fa4c38ULL);
  EXPECT_EQ(fingerprint(trace), 0xdf940a883e64b435ULL);
}

TEST(TracePin, ProxSkipVRDenseEveryIteration) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = fixture(3, 6);
  ProxSkipVROptions opts;
  opts.iterations = 12;
  opts.seed = 2;
  opts.step_size = 0.3;
  opts.skip_prob = 1.0;
  opts.batch_size = 2;
  opts.eval_every = 3;
  const auto trace = run_proxskip_vr(model, fed, opts, "pin", kW0);
  ASSERT_EQ(trace.rounds.size(), 4u);
  EXPECT_EQ(trace.final_param_hash, 0x792486f5b3b90135ULL);
  EXPECT_EQ(fingerprint(trace), 0xf872693a8c63229dULL);
}

// `devices` devices of `n` training and 4 test samples of `shape`, every
// feature a multiple of 1/8 in [-1, 1), and 10 classes.
data::FederatedDataset model_fixture(std::size_t devices, std::size_t n,
                                     const tensor::Shape& shape) {
  auto make = [&](std::size_t count, std::size_t device, std::size_t salt) {
    data::Dataset ds(shape, count, 10);
    for (std::size_t i = 0; i < count; ++i) {
      auto x = ds.mutable_sample(i);
      for (std::size_t j = 0; j < x.size(); ++j) {
        const std::size_t code = (7 * i + 3 * j + 5 * device + salt) % 16;
        x[j] = 0.125 * static_cast<double>(code) - 1.0;
      }
      ds.set_label(i, static_cast<int>((i + 3 * device) % 10));
    }
    return ds;
  };
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < devices; ++d) {
    fed.train.push_back(make(n, d, 0));
    fed.test.push_back(make(4, d, 9));
  }
  return fed;
}

// An explicit w0 of multiples of 1/256 in [-1/32, 1/32).
std::vector<double> model_w0(std::size_t dim) {
  std::vector<double> w(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    w[i] = static_cast<double>((11 * i) % 16) / 256.0 - 0.03125;
  }
  return w;
}

fl::TrainingTrace run_model_pin(std::shared_ptr<nn::FeedForwardModel> model,
                                const data::FederatedDataset& fed,
                                std::size_t batch_size) {
  fl::TrainerOptions opts;
  opts.rounds = 2;
  opts.seed = 4;
  opt::LocalSolverOptions o = svrg_solver();
  o.tau = 2;
  o.eta = 0.05;
  o.batch_size = batch_size;
  const fl::Trainer trainer(model, fed, opts);
  return trainer.run(opt::LocalSolver(model, o), "pin",
                     model_w0(model->num_parameters()));
}

// Batches of 6: Dense's dW (10 x 784 x 6) clears the 32^3 floor, so it runs
// on the A^T*B path.
TEST(TracePin, FedProxVRLogisticRegression784) {
  const auto fed = model_fixture(3, 12, tensor::Shape({784}));
  const auto trace =
      run_model_pin(nn::make_logistic_regression(784, 10), fed, 6);
  ASSERT_EQ(trace.rounds.size(), 2u);
  EXPECT_EQ(trace.final_param_hash, 0x25fd826a768d9240ULL);
  EXPECT_EQ(fingerprint(trace), 0xd390e73a84fd89a7ULL);
}

// ProxSkip-VR's device step on the same model and fixture: batches of 6
// with replacement, both Dense paths as above.
TEST(TracePin, ProxSkipVRLogisticRegression784) {
  const auto fed = model_fixture(3, 12, tensor::Shape({784}));
  auto model = nn::make_logistic_regression(784, 10);
  ProxSkipVROptions opts;
  opts.iterations = 6;
  opts.seed = 8;
  opts.step_size = 0.05;
  opts.skip_prob = 0.5;
  opts.batch_size = 6;
  opts.eval_every = 3;
  const auto trace = run_proxskip_vr(model, fed, opts, "pin",
                                     model_w0(model->num_parameters()));
  ASSERT_EQ(trace.rounds.size(), 2u);
  EXPECT_EQ(trace.final_param_hash, 0x182a237da24866faULL);
  EXPECT_EQ(fingerprint(trace), 0xa2b5c7d36386c989ULL);
}

// 16 x 16 inputs, 8 and 16 channels: conv1's forward (8 x 256 x 25) and
// all of conv2's GEMMs are at least 32^3 flops and take the blocked path.
TEST(TracePin, FedProxVRTwoLayerCnn) {
  nn::CnnConfig cfg;
  cfg.side = 16;
  cfg.conv1_channels = 8;
  cfg.conv2_channels = 16;
  const auto fed = model_fixture(2, 6, tensor::Shape({1, 16, 16}));
  const auto trace = run_model_pin(nn::make_two_layer_cnn(cfg), fed, 3);
  ASSERT_EQ(trace.rounds.size(), 2u);
  EXPECT_EQ(trace.final_param_hash, 0x154005a725ced8b5ULL);
  EXPECT_EQ(fingerprint(trace), 0x251c6aa5bd762896ULL);
}

}  // namespace
}  // namespace fedvr::core
