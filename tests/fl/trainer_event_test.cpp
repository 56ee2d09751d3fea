// Integration tests for the event-driven round engine: sampled
// participation (m ≪ N) with faults and compression must stay bit-identical
// across thread-pool sizes, the flat tree aggregator must reproduce the
// legacy mean hashes exactly, and a large virtual fleet must run rounds in
// O(m·dim) — only the sampled participants ever materialize.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "data/federation.h"
#include "fl/hierarchy.h"
#include "fl/trainer.h"
#include "testing/quadratic_model.h"
#include "util/thread_pool.h"

namespace fedvr::fl {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;

constexpr std::size_t kDim = 5;

opt::LocalSolver gd_solver(std::shared_ptr<const nn::Model> model,
                           std::size_t tau = 4) {
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kFullGradient;
  o.tau = tau;
  o.eta = 0.2;
  o.mu = 0.5;
  return opt::LocalSolver(std::move(model), o);
}

data::FederatedDataset small_fed(std::size_t devices) {
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < devices; ++d) {
    fed.train.push_back(quadratic_dataset(10 + 3 * (d % 4), kDim,
                                          static_cast<double>(d % 5), 0.3,
                                          700 + d));
    fed.test.push_back(
        quadratic_dataset(4, kDim, static_cast<double>(d % 5), 0.3, 800 + d));
  }
  return fed;
}

/// A quadratic fleet generated on demand: pure in the device index, O(1)
/// storage at any N.
std::shared_ptr<data::VirtualFederation> virtual_quadratic_fleet(
    std::size_t num_devices) {
  auto size_fn = [](std::size_t device) { return 8 + device % 5; };
  auto gen = [](std::size_t device, std::size_t num_samples,
                data::Dataset& out) {
    out = quadratic_dataset(num_samples, kDim,
                            static_cast<double>(device % 7), 0.3,
                            900 + device);
  };
  data::Dataset pooled = quadratic_dataset(16, kDim, 3.0, 0.3, 424242);
  return std::make_shared<data::VirtualFederation>(num_devices, size_fn, gen,
                                                   std::move(pooled));
}

TEST(TrainerEvent, SampledFaultyCompressedRoundsAreBitIdenticalAcrossPools) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(12);
  TrainerOptions opts;
  opts.rounds = 8;
  opts.seed = 91;
  opts.devices_per_round = 4;  // m ≪ N sampling via Floyd's algorithm
  FaultModelConfig cfg;
  cfg.dropout_prob = 0.2;
  cfg.straggler_prob = 0.3;
  cfg.straggler_slowdown = 2.5;
  cfg.uplink_loss_prob = 0.25;
  cfg.uplink_max_retries = 1;
  opts.faults = FaultModel(cfg);
  opts.comm.compressor = std::make_shared<comm::TopKCompressor>(0.5);
  opts.comm.error_feedback = true;
  opts.comm.byte_timing = true;
  opts.round_deadline = 50.0;
  const Trainer trainer(model, fed, opts);

  auto run_with_pool = [&](std::size_t threads) {
    util::ThreadPool::reset_global(threads);
    return trainer.run(gd_solver(model), "sampled");
  };
  const auto serial = run_with_pool(1);
  const auto two = run_with_pool(2);
  const auto full = run_with_pool(0);
  util::ThreadPool::reset_global(0);

  ASSERT_EQ(serial.rounds.size(), two.rounds.size());
  ASSERT_EQ(serial.rounds.size(), full.rounds.size());
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    EXPECT_EQ(serial.rounds[i].param_hash, two.rounds[i].param_hash);
    EXPECT_EQ(serial.rounds[i].param_hash, full.rounds[i].param_hash);
    EXPECT_EQ(serial.rounds[i].dropped_devices, full.rounds[i].dropped_devices);
    EXPECT_EQ(serial.rounds[i].undelivered_updates,
              full.rounds[i].undelivered_updates);
    EXPECT_EQ(serial.rounds[i].uplink_bytes, full.rounds[i].uplink_bytes);
    EXPECT_DOUBLE_EQ(serial.rounds[i].realized_round_time,
                     full.rounds[i].realized_round_time);
  }
  EXPECT_EQ(serial.final_param_hash, two.final_param_hash);
  EXPECT_EQ(serial.final_param_hash, full.final_param_hash);
  // The fault machinery actually fired somewhere in the run.
  std::size_t fault_events = 0;
  for (const auto& r : serial.rounds) {
    fault_events += r.dropped_devices + r.straggler_devices +
                    r.undelivered_updates;
  }
  EXPECT_GT(fault_events, 0u);
}

TEST(TrainerEvent, SampledRunIsReproducibleAndSeedSensitive) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(10);
  TrainerOptions opts;
  opts.rounds = 5;
  opts.seed = 7;
  opts.devices_per_round = 3;
  const Trainer a(model, fed, opts);
  const auto t1 = a.run(gd_solver(model), "a");
  const auto t2 = a.run(gd_solver(model), "a");
  EXPECT_EQ(t1.final_param_hash, t2.final_param_hash);
  opts.seed = 8;  // different seed ⇒ different participant draw + init
  const Trainer b(model, fed, opts);
  const auto t3 = b.run(gd_solver(model), "b");
  EXPECT_NE(t1.final_param_hash, t3.final_param_hash);
}

TEST(TrainerEvent, FlatTreeAggregatorMatchesLegacyMeanHashes) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(9);
  TrainerOptions mean_opts;
  mean_opts.rounds = 6;
  mean_opts.seed = 19;
  mean_opts.devices_per_round = 5;
  FaultModelConfig cfg;
  cfg.dropout_prob = 0.25;  // survivor subsets exercise renormalization
  mean_opts.faults = FaultModel(cfg);
  TrainerOptions tree_opts = mean_opts;
  tree_opts.aggregator = make_tree_aggregator({.fanout = 0});
  const Trainer mean_trainer(model, fed, mean_opts);
  const Trainer tree_trainer(model, fed, tree_opts);
  const auto a = mean_trainer.run(gd_solver(model), "mean");
  const auto b = tree_trainer.run(gd_solver(model), "tree");
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    // The single-level tree replays MeanAggregator's exact operation
    // sequence: hashes must be bitwise equal, not merely close.
    EXPECT_EQ(a.rounds[i].param_hash, b.rounds[i].param_hash) << "round " << i;
  }
  EXPECT_EQ(a.final_param_hash, b.final_param_hash);
}

TEST(TrainerEvent, LargeVirtualFleetTouchesOnlySampledParticipants) {
  constexpr std::size_t kFleet = 100000;
  constexpr std::size_t kSampled = 100;
  constexpr std::size_t kRounds = 3;
  auto model = std::make_shared<QuadraticModel>(kDim);
  auto fleet = virtual_quadratic_fleet(kFleet);
  TrainerOptions opts;
  opts.rounds = kRounds;
  opts.seed = 5;
  opts.devices_per_round = kSampled;
  // Global metrics are O(fleet); a sampled smoke run relies on hashes only.
  opts.eval_every = 1000;
  opts.eval_final = false;
  const Trainer trainer(model, fleet, opts);
  const auto trace = trainer.run(gd_solver(model, 2), "fleet");
  EXPECT_TRUE(trace.rounds.empty());  // no eval round fired
  EXPECT_EQ(trace.final_parameters.size(), kDim);
  EXPECT_NE(trace.final_param_hash, 0u);
  // The O(m·dim) contract, observed: every round materializes its m
  // participants' shards (once each, inside the solve) and nothing else —
  // no fleet-wide pass anywhere in the engine.
  EXPECT_EQ(fleet->materializations(), kSampled * kRounds);
}

TEST(TrainerEvent, MillionDeviceRoundCompletes) {
  constexpr std::size_t kFleet = 1000000;
  constexpr std::size_t kSampled = 1000;
  auto model = std::make_shared<QuadraticModel>(kDim);
  auto fleet = virtual_quadratic_fleet(kFleet);
  TrainerOptions opts;
  opts.rounds = 1;
  opts.seed = 3;
  opts.devices_per_round = kSampled;
  opts.eval_every = 2;  // never lands on round 1
  opts.eval_final = false;
  const Trainer trainer(model, fleet, opts);
  const auto trace = trainer.run(gd_solver(model, 2), "million");
  EXPECT_EQ(trace.final_parameters.size(), kDim);
  EXPECT_EQ(fleet->materializations(), kSampled);
}

TEST(TrainerEvent, VirtualAndInMemoryFederationsAgreeBitForBit) {
  // The federation seam must be invisible: a virtual fleet whose generator
  // reproduces the in-memory shards yields the identical trace.
  constexpr std::size_t kDevices = 6;
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(kDevices);
  auto size_fn = [&fed](std::size_t device) {
    return fed.train[device].size();
  };
  auto gen = [&fed](std::size_t device, std::size_t /*num_samples*/,
                    data::Dataset& out) { out = fed.train[device]; };
  auto virt = std::make_shared<data::VirtualFederation>(
      kDevices, size_fn, gen, fed.pooled_test());
  TrainerOptions opts;
  opts.rounds = 4;
  opts.seed = 29;
  opts.devices_per_round = 3;
  const Trainer in_memory(model, fed, opts);
  const Trainer virtual_fleet(model, virt, opts);
  const auto a = in_memory.run(gd_solver(model), "mem");
  const auto b = virtual_fleet.run(gd_solver(model), "virt");
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].param_hash, b.rounds[i].param_hash);
    EXPECT_DOUBLE_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
  }
  EXPECT_EQ(a.final_param_hash, b.final_param_hash);
}

// global_loss evaluates the fleet in waves of 4,096 devices and folds each
// wave onto one running total: over several waves with an uneven last one,
// at any pool size, it is the plain ascending Σ_n p_n F_n bit for bit.
TEST(TrainerEvent, GlobalLossInWavesIsTheAscendingSum) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fleet = virtual_quadratic_fleet(2 * 4096 + 1237);
  const Trainer trainer(model, fleet, TrainerOptions{});
  const std::vector<double> w = {0.5, -1.0, 2.0, 0.25, 3.0};
  double expected = 0.0;
  data::Dataset scratch;
  for (std::size_t n = 0; n < fleet->num_devices(); ++n) {
    expected +=
        fleet->weight(n) * model->full_loss(w, fleet->train(n, scratch));
  }
  for (std::size_t threads : {1, 3}) {
    util::ThreadPool::reset_global(threads);
    EXPECT_EQ(trainer.global_loss(w), expected) << threads << " threads";
  }
  util::ThreadPool::reset_global(0);
}

}  // namespace
}  // namespace fedvr::fl
