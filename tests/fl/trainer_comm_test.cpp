// The trainer x comm::Channel seam: error feedback rescues TopK from the
// classic cancellation stall, compressed+faulty runs are bit-identical
// across thread-pool sizes, and byte-derived timing rewards compression.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "comm/message.h"
#include "fl/trainer.h"
#include "testing/quadratic_model.h"
#include "util/thread_pool.h"

namespace fedvr::fl {
namespace {

using fedvr::testing::QuadraticModel;

// A dataset of n identical points at `center` — device objectives are then
// exact quadratics 0.5 ||w - center||^2 with no sampling noise.
data::Dataset point_dataset(std::vector<double> center, std::size_t n) {
  data::Dataset ds(tensor::Shape({center.size()}), n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = ds.mutable_sample(i);
    for (std::size_t j = 0; j < center.size(); ++j) s[j] = center[j];
    ds.set_label(i, static_cast<int>(i % 2));
  }
  return ds;
}

opt::LocalSolver gd(std::shared_ptr<const nn::Model> model, std::size_t tau,
                    double eta, double mu = 0.0) {
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kFullGradient;
  o.tau = tau;
  o.eta = eta;
  o.mu = mu;
  return opt::LocalSolver(std::move(model), o);
}

// The Stich/Karimireddy cancellation construction TopK is NOT convergent
// on: two equal-weight devices whose optima sit at (+a, b) and (-a, b).
// From w = 0 both top-1 compressed deltas keep only coordinate 0, with
// opposite signs, so the aggregate is exactly zero and plain TopK never
// moves — coordinate 1's mass is dropped every round. Error feedback
// accumulates that dropped mass until it dominates, transmits it, and the
// run converges to the true optimum (0, b).
TEST(TrainerComm, ErrorFeedbackRescuesTopKFromCancellationStall) {
  const std::size_t dim = 2;
  auto model = std::make_shared<QuadraticModel>(dim);
  data::FederatedDataset fed;
  fed.train.push_back(point_dataset({+1.0, 0.5}, 4));
  fed.train.push_back(point_dataset({-1.0, 0.5}, 4));
  fed.test.push_back(point_dataset({+1.0, 0.5}, 2));
  fed.test.push_back(point_dataset({-1.0, 0.5}, 2));
  const std::vector<double> w0{0.0, 0.0};

  TrainerOptions plain;
  plain.rounds = 200;
  plain.eval_every = 200;
  plain.comm.compressor = std::make_shared<comm::TopKCompressor>(0.5);
  TrainerOptions with_ef = plain;
  with_ef.comm.error_feedback = true;
  TrainerOptions dense = plain;
  dense.comm.compressor = nullptr;

  const Trainer t_plain(model, fed, plain);
  const Trainer t_ef(model, fed, with_ef);
  const Trainer t_dense(model, fed, dense);
  const auto solver = gd(model, 1, 0.1);
  const auto trace_plain = t_plain.run(solver, "topk", w0);
  const auto trace_ef = t_ef.run(solver, "topk+ef", w0);
  const auto trace_dense = t_dense.run(solver, "dense", w0);

  // Plain TopK: bit-exact stall at the initialization, forever. Its excess
  // loss over the uncompressed run is the full 0.5 * b^2 stall gap.
  EXPECT_EQ(trace_plain.final_parameters, w0);
  const double dense_loss = trace_dense.back().train_loss;
  EXPECT_GT(trace_plain.back().train_loss, dense_loss + 0.1);

  // TopK+EF escapes: the deferred coordinate-1 mass gets through and the
  // run settles into a small limit cycle around the uncompressed optimum
  // (constant step size; measured excess ~0.014, an order of magnitude
  // below the 0.125 stall gap).
  EXPECT_NEAR(trace_ef.final_parameters[0], 0.0, 1e-9);
  EXPECT_NEAR(trace_ef.final_parameters[1], 0.5, 0.25);
  EXPECT_LT(trace_ef.back().train_loss, dense_loss + 0.05);
  EXPECT_LT(trace_ef.back().train_loss, trace_plain.back().train_loss - 0.05);
}

TEST(TrainerComm, CompressedFaultyRunsBitIdenticalAcrossPoolSizes) {
  const std::size_t dim = 6;
  auto model = std::make_shared<QuadraticModel>(dim);
  data::FederatedDataset fed;
  for (int d = 0; d < 4; ++d) {
    fed.train.push_back(fedvr::testing::quadratic_dataset(
        6 + d, dim, static_cast<double>(d), 0.3, 50 + d));
    fed.test.push_back(fedvr::testing::quadratic_dataset(
        4, dim, static_cast<double>(d), 0.3, 90 + d));
  }
  TrainerOptions opts;
  opts.rounds = 8;
  opts.comm.compressor = std::make_shared<comm::TopKCompressor>(0.34);
  opts.comm.error_feedback = true;
  opts.comm.uplink_dtype = comm::DType::kInt8Block;
  opts.comm.byte_timing = true;
  FaultModelConfig cfg;
  cfg.dropout_prob = 0.15;
  cfg.straggler_prob = 0.2;
  cfg.uplink_loss_prob = 0.25;
  opts.faults = FaultModel(cfg);

  const auto run_with_pool = [&](std::size_t threads) {
    util::ThreadPool::reset_global(threads);
    const Trainer trainer(model, fed, opts);
    return trainer.run(gd(model, 3, 0.3, 0.1), "comm-pool");
  };
  const auto serial = run_with_pool(1);
  const auto two = run_with_pool(2);
  const auto many = run_with_pool(0);  // hardware concurrency
  util::ThreadPool::reset_global();

  ASSERT_EQ(serial.rounds.size(), two.rounds.size());
  ASSERT_EQ(serial.rounds.size(), many.rounds.size());
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    EXPECT_EQ(serial.rounds[i].param_hash, two.rounds[i].param_hash) << i;
    EXPECT_EQ(serial.rounds[i].param_hash, many.rounds[i].param_hash) << i;
    EXPECT_EQ(serial.rounds[i].uplink_bytes, many.rounds[i].uplink_bytes);
    EXPECT_EQ(serial.rounds[i].downlink_bytes, many.rounds[i].downlink_bytes);
    EXPECT_EQ(serial.rounds[i].model_time, many.rounds[i].model_time) << i;
  }
  EXPECT_EQ(serial.final_param_hash, many.final_param_hash);
}

TEST(TrainerComm, ByteTimingRewardsCompression) {
  const std::size_t dim = 400;
  auto model = std::make_shared<QuadraticModel>(dim);
  data::FederatedDataset fed;
  fed.train.push_back(fedvr::testing::quadratic_dataset(6, dim, 0.0, 0.1, 1));
  fed.train.push_back(fedvr::testing::quadratic_dataset(6, dim, 1.0, 0.1, 2));
  fed.test.push_back(fedvr::testing::quadratic_dataset(4, dim, 0.0, 0.1, 3));
  fed.test.push_back(fedvr::testing::quadratic_dataset(4, dim, 1.0, 0.1, 4));

  TrainerOptions dense;
  dense.rounds = 3;
  dense.comm.byte_timing = true;
  TrainerOptions lossy = dense;
  lossy.comm.compressor = std::make_shared<comm::TopKCompressor>(0.05);
  lossy.comm.uplink_dtype = comm::DType::kInt8Block;

  const auto solver = gd(model, 2, 0.2, 0.1);
  const auto dense_trace = Trainer(model, fed, dense).run(solver, "d");
  const auto lossy_trace = Trainer(model, fed, lossy).run(solver, "l");
  // Dense byte timing is calibrated to the analytic d_com: identical cost.
  const TrainerOptions analytic;
  EXPECT_NEAR(dense_trace.back().model_time,
              analytic.timing.round_time(2) * 3.0, 1e-9);
  // Compression shrinks the uplink, so byte-derived rounds are cheaper.
  EXPECT_LT(lossy_trace.back().model_time, dense_trace.back().model_time);
  EXPECT_LT(lossy_trace.back().uplink_bytes, dense_trace.back().uplink_bytes);
}

}  // namespace
}  // namespace fedvr::fl
