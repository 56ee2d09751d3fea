// Fault-injection integration: the trainer must degrade gracefully under
// crashes, stragglers, lossy uplinks, and round deadlines, while keeping
// the repo's two contracts intact:
//   * determinism — a fixed seed yields bit-identical traces for any
//     thread-pool size, faults included;
//   * no-fault neutrality — with the FaultModel disabled the engine takes
//     the exact pre-fault code path (hash-identical traces).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "comm/message.h"
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

data::FederatedDataset small_fed(std::size_t devices = 4) {
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < devices; ++d) {
    fed.train.push_back(quadratic_dataset(10 + 3 * d, kDim,
                                          static_cast<double>(d), 0.3,
                                          700 + d));
    fed.test.push_back(
        quadratic_dataset(4, kDim, static_cast<double>(d), 0.3, 800 + d));
  }
  return fed;
}

/// Devices with *identical local objectives* but unequal aggregation
/// weights: device n holds (n + 1) copies of the same base dataset, so the
/// per-device mean — and hence the full-gradient local trajectory — is the
/// same everywhere while D_n/D varies. Any survivor subset, renormalized to
/// weight one, must therefore aggregate to exactly the full-participation
/// model; a renormalization bug shows up as a hash divergence.
data::FederatedDataset replicated_fed(std::size_t devices) {
  const data::Dataset base = quadratic_dataset(10, kDim, 1.5, 0.4, 900);
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < devices; ++d) {
    data::Dataset copies(base.sample_shape(), 0, 2);
    for (std::size_t rep = 0; rep <= d; ++rep) copies.append(base);
    fed.train.push_back(std::move(copies));
    fed.test.push_back(quadratic_dataset(4, kDim, 1.5, 0.4, 950 + d));
  }
  return fed;
}

FaultModelConfig mixed_faults() {
  FaultModelConfig cfg;
  cfg.dropout_prob = 0.2;
  cfg.straggler_prob = 0.4;
  cfg.straggler_slowdown = 3.0;
  cfg.uplink_loss_prob = 0.3;
  cfg.uplink_max_retries = 2;
  cfg.retry_backoff = 2.0;
  return cfg;
}

TEST(TrainerFaults, DisabledModelMatchesDefaultOptionsBitForBit) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions plain;
  plain.rounds = 6;
  plain.seed = 17;
  TrainerOptions with_disabled_model = plain;
  with_disabled_model.faults = FaultModel{};  // explicit no-op
  const Trainer t1(model, fed, plain);
  const Trainer t2(model, fed, with_disabled_model);
  const auto a = t1.run(gd_solver(model), "x");
  const auto b = t2.run(gd_solver(model), "x");
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].param_hash, b.rounds[i].param_hash);
    EXPECT_EQ(a.rounds[i].dropped_devices, 0u);
    EXPECT_EQ(a.rounds[i].straggler_devices, 0u);
    EXPECT_EQ(a.rounds[i].uplink_retries, 0u);
    EXPECT_EQ(a.rounds[i].deadline_misses, 0u);
  }
  EXPECT_EQ(a.final_param_hash, b.final_param_hash);
}

TEST(TrainerFaults, RealizedRoundTimeEqualsAnalyticOnNoFaultPath) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions opts;
  opts.rounds = 3;
  opts.timing = TimingModel{.d_com = 2.0, .d_cmp = 0.25};
  const Trainer trainer(model, fed, opts);
  const std::size_t tau = 4;
  const auto trace = trainer.run(gd_solver(model, tau), "t");
  for (const auto& r : trace.rounds) {
    EXPECT_DOUBLE_EQ(r.realized_round_time, opts.timing.round_time(tau));
  }
}

TEST(TrainerFaults, TracesAreBitIdenticalAcrossPoolSizes) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(5);
  TrainerOptions opts;
  opts.rounds = 8;
  opts.seed = 23;
  opts.faults = FaultModel(mixed_faults());
  const Trainer trainer(model, fed, opts);

  auto run_with_pool = [&](std::size_t threads) {
    util::ThreadPool::reset_global(threads);
    return trainer.run(gd_solver(model), "faulted");
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
    EXPECT_EQ(serial.rounds[i].dropped_devices, two.rounds[i].dropped_devices);
    EXPECT_EQ(serial.rounds[i].dropped_devices,
              full.rounds[i].dropped_devices);
    EXPECT_EQ(serial.rounds[i].undelivered_updates,
              full.rounds[i].undelivered_updates);
    EXPECT_EQ(serial.rounds[i].straggler_devices,
              full.rounds[i].straggler_devices);
    EXPECT_EQ(serial.rounds[i].uplink_retries, full.rounds[i].uplink_retries);
    EXPECT_DOUBLE_EQ(serial.rounds[i].model_time, full.rounds[i].model_time);
    EXPECT_DOUBLE_EQ(serial.rounds[i].realized_round_time,
                     full.rounds[i].realized_round_time);
  }
  EXPECT_EQ(serial.final_param_hash, full.final_param_hash);
  // The fault sequence actually fired (otherwise this test proves nothing).
  EXPECT_GT(serial.back().dropped_devices + serial.back().straggler_devices,
            0u);
}

TEST(TrainerFaults, SurvivorWeightsRenormalizeToOne) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = replicated_fed(4);
  TrainerOptions plain;
  plain.rounds = 10;
  plain.seed = 31;  // chosen so every round keeps at least one survivor
  TrainerOptions faulty = plain;
  FaultModelConfig cfg;
  cfg.dropout_prob = 0.3;
  faulty.faults = FaultModel(cfg);
  const Trainer t1(model, fed, plain);
  const Trainer t2(model, fed, faulty);
  const auto a = t1.run(gd_solver(model), "full");
  const auto b = t2.run(gd_solver(model), "dropped");
  // Identical local objectives: any renormalized survivor average equals
  // the full-participation average up to summation rounding. A broken
  // renormalization instead scales the model by the surviving weight mass
  // (~0.7 here) — off by ~30%, not 1e-9.
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_NEAR(a.rounds[i].train_loss, b.rounds[i].train_loss, 1e-9);
  }
  ASSERT_EQ(a.final_parameters.size(), b.final_parameters.size());
  for (std::size_t j = 0; j < a.final_parameters.size(); ++j) {
    EXPECT_NEAR(a.final_parameters[j], b.final_parameters[j], 1e-9);
  }
  EXPECT_GT(b.back().dropped_devices, 0u);  // faults really fired
}

TEST(TrainerFaults, ZeroSurvivorRoundsKeepPreviousModel) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions opts;
  opts.rounds = 5;
  FaultModelConfig cfg;
  cfg.dropout_prob = 1.0;  // everyone crashes, every round
  opts.faults = FaultModel(cfg);
  const Trainer trainer(model, fed, opts);
  const std::vector<double> w0(kDim, 0.25);
  const auto trace = trainer.run(gd_solver(model), "ghost", w0);
  EXPECT_EQ(trace.final_parameters, w0);
  for (const auto& r : trace.rounds) {
    // Crashes are detected immediately: nobody reports, no time passes.
    EXPECT_DOUBLE_EQ(r.realized_round_time, 0.0);
  }
  EXPECT_EQ(trace.back().dropped_devices, 5u * fed.num_devices());
}

TEST(TrainerFaults, StragglersInflateTimeButNotTheModel) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions plain;
  plain.rounds = 4;
  plain.timing = TimingModel{.d_com = 1.0, .d_cmp = 0.5};
  TrainerOptions slow = plain;
  FaultModelConfig cfg;
  cfg.straggler_prob = 1.0;
  cfg.straggler_slowdown = 3.0;
  slow.faults = FaultModel(cfg);
  const Trainer t1(model, fed, plain);
  const Trainer t2(model, fed, slow);
  const std::size_t tau = 4;
  const auto a = t1.run(gd_solver(model, tau), "x");
  const auto b = t2.run(gd_solver(model, tau), "x");
  // Stragglers deliver (late) updates: the model sequence is untouched.
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].param_hash, b.rounds[i].param_hash);
  }
  // ... but every round now costs d_com + slowdown * d_cmp * tau.
  const double slow_round = 1.0 + 3.0 * 0.5 * static_cast<double>(tau);
  EXPECT_NEAR(b.back().model_time, 4.0 * slow_round, 1e-12);
  EXPECT_EQ(b.back().straggler_devices, 4u * fed.num_devices());
}

TEST(TrainerFaults, ExhaustedUplinkFreezesModelAndChargesRetries) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed();
  TrainerOptions opts;
  opts.rounds = 3;
  opts.timing = TimingModel{.d_com = 1.0, .d_cmp = 0.1};
  FaultModelConfig cfg;
  cfg.uplink_loss_prob = 1.0;  // every transmission lost
  cfg.uplink_max_retries = 2;
  cfg.retry_backoff = 2.0;
  opts.faults = FaultModel(cfg);
  const Trainer trainer(model, fed, opts);
  const std::vector<double> w0(kDim, -1.0);
  const std::size_t tau = 4;
  const auto trace = trainer.run(gd_solver(model, tau), "lossy", w0);
  // No update ever reaches the server. The devices computed and transmitted
  // (the retry budget just ran out), so they count as undelivered updates —
  // dropped_devices means crashes only (CSV schema v2).
  EXPECT_EQ(trace.final_parameters, w0);
  EXPECT_EQ(trace.back().dropped_devices, 0u);
  EXPECT_EQ(trace.back().undelivered_updates, 3u * fed.num_devices());
  EXPECT_EQ(trace.back().uplink_retries, 3u * fed.num_devices() * 2u);
  // Each device holds the barrier for d_com * (1 + 2 + 4) + d_cmp * tau.
  const double per_round = 1.0 * 7.0 + 0.1 * static_cast<double>(tau);
  EXPECT_NEAR(trace.back().model_time, 3.0 * per_round, 1e-12);
  // Wire accounting: one dense downlink message per participant plus THREE
  // uplink attempts per device per round (first try + two retries), all
  // lost — each attempt at the serialized dense-f64 message size.
  const std::size_t msg =
      comm::wire_bytes(comm::DType::kFloat64, kDim, kDim, /*sparse=*/false);
  EXPECT_EQ(trace.back().downlink_bytes, 3u * fed.num_devices() * msg);
  EXPECT_EQ(trace.back().uplink_bytes, 3u * fed.num_devices() * 3u * msg);
  EXPECT_EQ(trace.back().comm_bytes,
            trace.back().uplink_bytes + trace.back().downlink_bytes);
}

TEST(TrainerFaults, DeadlineDegradesSlowDevicesOutOfAggregation) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  // Device 1 is pathologically slow: 1 + 2.0 * tau model-seconds per round.
  const auto fed = small_fed(2);
  TrainerOptions opts;
  opts.rounds = 6;
  opts.seed = 3;
  opts.per_device_timing = {TimingModel{.d_com = 1.0, .d_cmp = 0.1},
                            TimingModel{.d_com = 1.0, .d_cmp = 2.0}};
  opts.round_deadline = 5.0;  // fast device (1.4) beats it; slow (9.0) misses
  const Trainer trainer(model, fed, opts);
  const std::size_t tau = 4;
  const auto trace = trainer.run(gd_solver(model, tau), "deadline");

  // The slow device misses every round; the server waits out the deadline.
  // Deadline misses are undelivered updates, not crashes (CSV schema v2).
  EXPECT_EQ(trace.back().deadline_misses, 6u);
  EXPECT_EQ(trace.back().undelivered_updates, 6u);
  EXPECT_EQ(trace.back().dropped_devices, 0u);
  for (const auto& r : trace.rounds) {
    EXPECT_DOUBLE_EQ(r.realized_round_time, 5.0);
  }
  EXPECT_NEAR(trace.back().model_time, 6.0 * 5.0, 1e-12);
  // The late update still crossed the wire: both devices' uploads are
  // charged every round, at the serialized dense-f64 message size.
  const std::size_t msg =
      comm::wire_bytes(comm::DType::kFloat64, kDim, kDim, /*sparse=*/false);
  EXPECT_EQ(trace.back().uplink_bytes, 6u * 2u * msg);

  // With device 1 degraded out every round, the parameter sequence must be
  // bit-identical to training on device 0 alone (its survivor weight
  // renormalizes to exactly 1).
  data::FederatedDataset solo;
  solo.train.push_back(fed.train[0]);
  solo.test.push_back(fed.test[0]);
  TrainerOptions solo_opts;
  solo_opts.rounds = 6;
  solo_opts.seed = 3;
  const Trainer solo_trainer(model, solo, solo_opts);
  const auto solo_trace = solo_trainer.run(gd_solver(model, tau), "solo");
  ASSERT_EQ(trace.rounds.size(), solo_trace.rounds.size());
  for (std::size_t i = 0; i < trace.rounds.size(); ++i) {
    EXPECT_EQ(trace.rounds[i].param_hash, solo_trace.rounds[i].param_hash);
  }
}

TEST(TrainerFaults, CompletionExactlyAtTheDeadlineIsOnTime) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(2);
  TrainerOptions plain;
  plain.rounds = 4;
  plain.seed = 3;
  plain.per_device_timing = {TimingModel{.d_com = 1.0, .d_cmp = 0.1},
                             TimingModel{.d_com = 1.0, .d_cmp = 2.0}};
  const std::size_t tau = 4;
  TrainerOptions opts = plain;
  // The slowest device completes exactly at the cutoff.
  opts.round_deadline = opts.per_device_timing[1].round_time(tau);
  const auto trace =
      Trainer(model, fed, opts).run(gd_solver(model, tau), "at-deadline");
  EXPECT_EQ(trace.back().deadline_misses, 0u);
  EXPECT_EQ(trace.back().undelivered_updates, 0u);
  for (const auto& r : trace.rounds) {
    EXPECT_DOUBLE_EQ(r.realized_round_time, *opts.round_deadline);
  }
  // Both updates are aggregated every round, as with no deadline at all.
  const auto free_run =
      Trainer(model, fed, plain).run(gd_solver(model, tau), "no-deadline");
  EXPECT_EQ(trace.final_param_hash, free_run.final_param_hash);
}

TEST(TrainerFaults, CrashedSlowDeviceNeverHoldsUpTheRound) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(2);
  TrainerOptions opts;
  opts.rounds = 20;
  opts.seed = 23;
  // Device 1 is the slowest by far: whenever it reports, the round waits
  // for it.
  opts.per_device_timing = {TimingModel{.d_com = 1.0, .d_cmp = 0.1},
                            TimingModel{.d_com = 1.0, .d_cmp = 2.0}};
  FaultModelConfig cfg;
  cfg.dropout_prob = 0.4;
  opts.faults = FaultModel(cfg);
  const std::size_t tau = 4;
  const auto trace =
      Trainer(model, fed, opts).run(gd_solver(model, tau), "crash");
  ASSERT_EQ(trace.rounds.size(), opts.rounds);
  std::size_t checked = 0;
  for (const auto& r : trace.rounds) {
    if (!opts.faults.sample(opts.seed, 1, r.round).dropped ||
        opts.faults.sample(opts.seed, 0, r.round).dropped) {
      continue;
    }
    // Device 1 crashed and device 0 did not: the round lasts exactly
    // device 0's eq. 19 time.
    EXPECT_DOUBLE_EQ(r.realized_round_time,
                     opts.per_device_timing[0].round_time(tau))
        << "round " << r.round;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(TrainerFaults, RealizedRoundTimeIsTheSlowestParticipant) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(3);
  TrainerOptions opts;
  opts.rounds = 3;
  // eq. 19 at tau = 4: 3.0, 4.0 and 2.5. The slowest device sits in the
  // middle slot, so neither the first nor the last arrival sets the time.
  opts.per_device_timing = {TimingModel{.d_com = 1.0, .d_cmp = 0.5},
                            TimingModel{.d_com = 2.0, .d_cmp = 0.5},
                            TimingModel{.d_com = 1.5, .d_cmp = 0.25}};
  const std::size_t tau = 4;
  const auto trace =
      Trainer(model, fed, opts).run(gd_solver(model, tau), "slowest");
  const double slowest = opts.per_device_timing[1].round_time(tau);
  ASSERT_EQ(trace.rounds.size(), opts.rounds);
  for (const auto& r : trace.rounds) {
    EXPECT_DOUBLE_EQ(r.realized_round_time, slowest) << "round " << r.round;
  }
  EXPECT_NEAR(trace.back().model_time, 3.0 * slowest, 1e-12);
}

TEST(TrainerFaults, UndeliveredSlowDeviceStillHoldsUpTheRound) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(2);
  TrainerOptions opts;
  opts.rounds = 20;
  opts.seed = 29;
  opts.per_device_timing = {TimingModel{.d_com = 1.0, .d_cmp = 0.1},
                            TimingModel{.d_com = 1.0, .d_cmp = 2.0}};
  FaultModelConfig cfg;
  cfg.uplink_loss_prob = 0.5;
  cfg.uplink_max_retries = 0;  // one lost attempt leaves it undelivered
  opts.faults = FaultModel(cfg);
  const std::size_t tau = 4;
  const auto trace =
      Trainer(model, fed, opts).run(gd_solver(model, tau), "lossy-slow");
  ASSERT_EQ(trace.rounds.size(), opts.rounds);
  const double slow = opts.per_device_timing[1].round_time(tau);
  std::size_t failed = 0;
  std::size_t slow_failed = 0;
  for (const auto& r : trace.rounds) {
    for (const std::size_t device : {0u, 1u}) {
      if (opts.faults.sample(opts.seed, device, r.round).uplink_failed) {
        ++failed;
        if (device == 1) ++slow_failed;
      }
    }
    // The slow device computed and transmitted, so the server waited for
    // its transmission whether or not it got through.
    EXPECT_DOUBLE_EQ(r.realized_round_time, slow) << "round " << r.round;
  }
  EXPECT_GT(slow_failed, 0u);
  // ... but a failed uplink is never aggregated.
  EXPECT_EQ(trace.back().undelivered_updates, failed);
  EXPECT_EQ(trace.back().dropped_devices, 0u);
}

TEST(TrainerFaults, DeadlineSplitsEarlyOnTimeAndLateDevicesInOneRound) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(3);
  TrainerOptions opts;
  opts.rounds = 4;
  opts.seed = 5;
  // eq. 19 at tau = 4: 1.4 (early), 5.0 (exactly at the cutoff), 9.0 (late).
  opts.per_device_timing = {TimingModel{.d_com = 1.0, .d_cmp = 0.1},
                            TimingModel{.d_com = 1.0, .d_cmp = 1.0},
                            TimingModel{.d_com = 1.0, .d_cmp = 2.0}};
  opts.round_deadline = 5.0;
  const std::size_t tau = 4;
  const auto trace =
      Trainer(model, fed, opts).run(gd_solver(model, tau), "split");
  ASSERT_EQ(trace.rounds.size(), opts.rounds);
  for (const auto& r : trace.rounds) {
    // Only the late device misses, once per round, and the server stops
    // waiting at the cutoff.
    EXPECT_EQ(r.deadline_misses, r.round);
    EXPECT_EQ(r.undelivered_updates, r.round);
    EXPECT_DOUBLE_EQ(r.realized_round_time, 5.0);
  }
  // All three uploads crossed the wire every round.
  const std::size_t msg =
      comm::wire_bytes(comm::DType::kFloat64, kDim, kDim, /*sparse=*/false);
  EXPECT_EQ(trace.back().uplink_bytes, 4u * 3u * msg);

  // The early and the on-time device are aggregated: the model follows
  // training on those two alone, up to the rounding of the survivor weights.
  data::FederatedDataset pair;
  for (const std::size_t d : {0u, 1u}) {
    pair.train.push_back(fed.train[d]);
    pair.test.push_back(fed.test[d]);
  }
  TrainerOptions pair_opts;
  pair_opts.rounds = 4;
  pair_opts.seed = 5;
  const auto pair_trace =
      Trainer(model, pair, pair_opts).run(gd_solver(model, tau), "pair");
  ASSERT_EQ(trace.final_parameters.size(), pair_trace.final_parameters.size());
  for (std::size_t j = 0; j < trace.final_parameters.size(); ++j) {
    EXPECT_NEAR(trace.final_parameters[j], pair_trace.final_parameters[j],
                1e-12);
  }
}

TEST(TrainerFaults, EveryRoundMatchesAScheduleOfItsOwnFaults) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(5);
  TrainerOptions opts;
  opts.rounds = 12;
  opts.seed = 41;
  opts.per_device_timing = {TimingModel{.d_com = 1.0, .d_cmp = 0.1},
                            TimingModel{.d_com = 1.0, .d_cmp = 0.3},
                            TimingModel{.d_com = 1.0, .d_cmp = 0.5},
                            TimingModel{.d_com = 1.0, .d_cmp = 0.8},
                            TimingModel{.d_com = 1.0, .d_cmp = 1.2}};
  opts.round_deadline = 6.0;
  opts.faults = FaultModel(mixed_faults());
  const std::size_t tau = 4;
  const auto trace =
      Trainer(model, fed, opts).run(gd_solver(model, tau), "oracle");
  ASSERT_EQ(trace.rounds.size(), opts.rounds);

  // Rounds of different shapes follow one another (more or fewer crashes,
  // misses and retries), so any slot list or round time carried over from
  // an earlier round shows up as a mismatch.
  RoundMetrics expect;
  for (const auto& r : trace.rounds) {
    double round_time = 0.0;
    for (std::size_t device = 0; device < fed.num_devices(); ++device) {
      const FaultEvent ev = opts.faults.sample(opts.seed, device, r.round);
      if (ev.dropped) {
        ++expect.dropped_devices;
        continue;
      }
      const double completion = opts.per_device_timing[device].round_time(
          tau, ev.slowdown,
          ev.com_multiplier(opts.faults.config().retry_backoff));
      const bool missed = completion > *opts.round_deadline;
      round_time = std::max(round_time,
                            std::min(completion, *opts.round_deadline));
      if (ev.straggler) ++expect.straggler_devices;
      expect.uplink_retries += ev.uplink_retries;
      if (missed) ++expect.deadline_misses;
      if (missed || ev.uplink_failed) ++expect.undelivered_updates;
    }
    EXPECT_DOUBLE_EQ(r.realized_round_time, round_time) << "round " << r.round;
    EXPECT_EQ(r.dropped_devices, expect.dropped_devices) << "round " << r.round;
    EXPECT_EQ(r.straggler_devices, expect.straggler_devices)
        << "round " << r.round;
    EXPECT_EQ(r.uplink_retries, expect.uplink_retries) << "round " << r.round;
    EXPECT_EQ(r.deadline_misses, expect.deadline_misses)
        << "round " << r.round;
    EXPECT_EQ(r.undelivered_updates, expect.undelivered_updates)
        << "round " << r.round;
  }
  // Every kind of fault fired, or this test proves little.
  EXPECT_GT(expect.dropped_devices, 0u);
  EXPECT_GT(expect.straggler_devices, 0u);
  EXPECT_GT(expect.uplink_retries, 0u);
  EXPECT_GT(expect.deadline_misses, 0u);
}

TEST(TrainerFaults, DeadlineBelowEveryDeviceFreezesTheModel) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(2);
  TrainerOptions opts;
  opts.rounds = 3;
  opts.timing = TimingModel{.d_com = 1.0, .d_cmp = 1.0};
  opts.round_deadline = 0.5;  // round time is 1 + tau: nobody makes it
  const Trainer trainer(model, fed, opts);
  const std::vector<double> w0(kDim, 2.0);
  const auto trace = trainer.run(gd_solver(model), "impossible", w0);
  EXPECT_EQ(trace.final_parameters, w0);
  EXPECT_EQ(trace.back().deadline_misses, 3u * fed.num_devices());
  for (const auto& r : trace.rounds) {
    EXPECT_DOUBLE_EQ(r.realized_round_time, 0.5);
  }
}

TEST(TrainerFaults, RejectsNonPositiveDeadline) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(2);
  TrainerOptions opts;
  opts.round_deadline = 0.0;
  EXPECT_THROW(Trainer(model, fed, opts), util::Error);
  opts.round_deadline = -1.0;
  EXPECT_THROW(Trainer(model, fed, opts), util::Error);
}

TEST(TrainerFaults, CountersAccumulateMonotonically) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = small_fed(5);
  TrainerOptions opts;
  opts.rounds = 10;
  opts.seed = 13;
  opts.faults = FaultModel(mixed_faults());
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(gd_solver(model), "t");
  for (std::size_t i = 1; i < trace.rounds.size(); ++i) {
    EXPECT_GE(trace.rounds[i].dropped_devices,
              trace.rounds[i - 1].dropped_devices);
    EXPECT_GE(trace.rounds[i].undelivered_updates,
              trace.rounds[i - 1].undelivered_updates);
    EXPECT_GE(trace.rounds[i].straggler_devices,
              trace.rounds[i - 1].straggler_devices);
    EXPECT_GE(trace.rounds[i].uplink_retries,
              trace.rounds[i - 1].uplink_retries);
    EXPECT_GE(trace.rounds[i].comm_bytes, trace.rounds[i - 1].comm_bytes);
  }
}

}  // namespace
}  // namespace fedvr::fl
