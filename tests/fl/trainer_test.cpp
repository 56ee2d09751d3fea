#include "fl/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "check/check.h"
#include "comm/message.h"
#include "tensor/vecops.h"
#include "testing/quadratic_model.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedvr::fl {
namespace {

using fedvr::testing::dataset_mean;
using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;
using fedvr::util::Error;

constexpr std::size_t kDim = 4;

// Two devices with quadratic objectives centered at different points: the
// global optimum is the D_n/D-weighted mean of the two centers.
data::FederatedDataset two_device_fed(std::size_t n0, std::size_t n1,
                                      double c0, double c1) {
  data::FederatedDataset fed;
  fed.train.push_back(quadratic_dataset(n0, kDim, c0, 0.1, 100));
  fed.train.push_back(quadratic_dataset(n1, kDim, c1, 0.1, 200));
  fed.test.push_back(quadratic_dataset(8, kDim, c0, 0.1, 300));
  fed.test.push_back(quadratic_dataset(8, kDim, c1, 0.1, 400));
  return fed;
}

opt::LocalSolver gd_solver(std::shared_ptr<const nn::Model> model,
                           std::size_t tau, double eta, double mu) {
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kFullGradient;
  o.tau = tau;
  o.eta = eta;
  o.mu = mu;
  return opt::LocalSolver(std::move(model), o);
}

TEST(Trainer, ValidatesConstruction) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions bad;
  bad.rounds = 0;
  EXPECT_THROW(Trainer(model, fed, bad), Error);
  TrainerOptions sample_too_many;
  sample_too_many.devices_per_round = 5;
  EXPECT_THROW(Trainer(model, fed, sample_too_many), Error);
  data::FederatedDataset with_empty = two_device_fed(10, 10, 0.0, 1.0);
  with_empty.train[1] = data::Dataset(tensor::Shape({kDim}), 0, 2);
  EXPECT_THROW(Trainer(model, with_empty, TrainerOptions{}), Error);
}

TEST(Trainer, OptionValidationSurvivesDisabledCheckLayer) {
  // Constructor validation is the production guard rail, not debug
  // instrumentation: every malformed-option throw below must fire with the
  // FEDVR_CHECKS runtime gate off (and in -DFEDVR_CHECKS=OFF builds, where
  // this test runs with the gated macros compiled out entirely).
  const bool prev = check::set_enabled(false);
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions bad;
  bad.eval_every = 0;
  EXPECT_THROW(Trainer(model, fed, bad), Error);
  bad = TrainerOptions{};
  bad.devices_per_round = 0;
  EXPECT_THROW(Trainer(model, fed, bad), Error);
  bad = TrainerOptions{};
  bad.devices_per_round = fed.num_devices() + 1;
  EXPECT_THROW(Trainer(model, fed, bad), Error);
  bad = TrainerOptions{};
  bad.rounds = 0;
  EXPECT_THROW(Trainer(model, fed, bad), Error);
  bad = TrainerOptions{};
  bad.round_deadline = -1.0;
  EXPECT_THROW(Trainer(model, fed, bad), Error);
  bad = TrainerOptions{};
  bad.defense.update_norm_bound = -2.0;
  EXPECT_THROW(Trainer(model, fed, bad), Error);
  bad = TrainerOptions{};
  bad.defense.quarantine_strikes = 1;
  bad.defense.quarantine_rounds = 0;
  EXPECT_THROW(Trainer(model, fed, bad), Error);
  check::set_enabled(prev);
}

TEST(Trainer, GlobalLossIsWeightedDeviceLoss) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(30, 10, 0.0, 2.0);
  const Trainer trainer(model, fed, TrainerOptions{});
  const std::vector<double> w(kDim, 1.0);
  const double expected = 0.75 * model->full_loss(w, fed.train[0]) +
                          0.25 * model->full_loss(w, fed.train[1]);
  EXPECT_NEAR(trainer.global_loss(w), expected, 1e-12);
}

TEST(Trainer, GlobalGradNormSqMatchesAnalyticQuadratic) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(20, 20, -1.0, 3.0);
  const Trainer trainer(model, fed, TrainerOptions{});
  // grad F̄(w) = w - weighted mean of device means.
  std::vector<double> target(kDim, 0.0);
  tensor::axpy(fed.weight(0), dataset_mean(fed.train[0]), target);
  tensor::axpy(fed.weight(1), dataset_mean(fed.train[1]), target);
  const std::vector<double> w(kDim, 0.5);
  EXPECT_NEAR(trainer.global_grad_norm_sq(w),
              tensor::squared_distance(w, target), 1e-10);
}

TEST(Trainer, ConvergesToWeightedOptimumWithFullGradientLocalSteps) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(30, 10, 0.0, 4.0);
  TrainerOptions opts;
  opts.rounds = 60;
  opts.seed = 5;
  const Trainer trainer(model, fed, opts);
  // Moderate mu keeps locals near the anchor => stable convergence to the
  // weighted optimum.
  const auto trace = trainer.run(gd_solver(model, 5, 0.3, 1.0), "gd");
  ASSERT_FALSE(trace.empty());
  // Loss decreases to (near) the irreducible variance floor.
  EXPECT_LT(trace.back().train_loss, trace.rounds.front().train_loss);
  EXPECT_LT(trace.back().train_loss - trace.min_train_loss(), 1e-6);
}

TEST(Trainer, SerialAndParallelRunsProduceIdenticalTraces) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(15, 25, 1.0, -2.0);
  TrainerOptions serial;
  serial.rounds = 10;
  serial.seed = 7;
  serial.parallel = false;
  TrainerOptions parallel = serial;
  parallel.parallel = true;
  const Trainer ts(model, fed, serial);
  const Trainer tp(model, fed, parallel);
  const auto a = ts.run(gd_solver(model, 3, 0.2, 0.5), "x");
  const auto b = tp.run(gd_solver(model, 3, 0.2, 0.5), "x");
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
    EXPECT_DOUBLE_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
  }
}

TEST(Trainer, TraceRecordsModelTimeFromTimingModel) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions opts;
  opts.rounds = 4;
  opts.timing = TimingModel{.d_com = 1.0, .d_cmp = 0.5};
  const Trainer trainer(model, fed, opts);
  const std::size_t tau = 6;
  const auto trace = trainer.run(gd_solver(model, tau, 0.2, 0.5), "t");
  ASSERT_EQ(trace.rounds.size(), 4u);
  const double per_round = 1.0 + 0.5 * static_cast<double>(tau);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(trace.rounds[i].model_time,
                per_round * static_cast<double>(i + 1), 1e-12);
  }
}

TEST(Trainer, EvalEveryThinsTheTrace) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions opts;
  opts.rounds = 10;
  opts.eval_every = 3;
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(gd_solver(model, 2, 0.2, 0.5), "t");
  // Rounds 3, 6, 9 plus the final round 10.
  ASSERT_EQ(trace.rounds.size(), 4u);
  EXPECT_EQ(trace.rounds[0].round, 3u);
  EXPECT_EQ(trace.rounds.back().round, 10u);
}

TEST(Trainer, ClientSamplingUsesSubsetAndStaysDeterministic) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  data::FederatedDataset fed;
  for (int d = 0; d < 6; ++d) {
    fed.train.push_back(
        quadratic_dataset(10, kDim, static_cast<double>(d), 0.1,
                          500 + static_cast<std::uint64_t>(d)));
    fed.test.push_back(
        quadratic_dataset(4, kDim, static_cast<double>(d), 0.1,
                          600 + static_cast<std::uint64_t>(d)));
  }
  TrainerOptions opts;
  opts.rounds = 8;
  opts.seed = 11;
  opts.devices_per_round = 2;
  const Trainer trainer(model, fed, opts);
  const auto a = trainer.run(gd_solver(model, 3, 0.2, 0.5), "s");
  const auto b = trainer.run(gd_solver(model, 3, 0.2, 0.5), "s");
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
  }
  EXPECT_LT(a.back().train_loss, a.rounds.front().train_loss * 1.5);
}

TEST(Trainer, SampledSubsetWeightsRenormalizeToOne) {
  // Every device holds a copy of the same dataset, so each local solve
  // returns (up to rounding) the same model: aggregating ANY sampled subset
  // with weights renormalized to one must match full participation. A
  // missing renormalization scales the model by the sampled weight mass
  // (1/3 here) instead — a gross divergence, not rounding noise.
  auto model = std::make_shared<QuadraticModel>(kDim);
  data::FederatedDataset fed;
  for (int d = 0; d < 3; ++d) {
    fed.train.push_back(quadratic_dataset(12, kDim, 2.0, 0.2, 77));
    fed.test.push_back(quadratic_dataset(4, kDim, 2.0, 0.2, 88));
  }
  TrainerOptions full;
  full.rounds = 8;
  full.seed = 19;
  TrainerOptions sampled = full;
  sampled.devices_per_round = 1;
  const Trainer tf(model, fed, full);
  const Trainer ts(model, fed, sampled);
  const auto a = tf.run(gd_solver(model, 3, 0.2, 0.5), "full");
  const auto b = ts.run(gd_solver(model, 3, 0.2, 0.5), "sampled");
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_NEAR(a.rounds[i].train_loss, b.rounds[i].train_loss, 1e-9);
  }
  for (std::size_t j = 0; j < kDim; ++j) {
    EXPECT_NEAR(a.final_parameters[j], b.final_parameters[j], 1e-9);
  }
}

TEST(Trainer, ClientSamplingIsDeterministicAcrossPoolSizes) {
  // The participant draw forks its RNG by round, never from a shared
  // stream, so the sampled subsets — and hence the whole trace — must be
  // bit-identical whether devices run on 1, 2, or all hardware threads.
  auto model = std::make_shared<QuadraticModel>(kDim);
  data::FederatedDataset fed;
  for (int d = 0; d < 6; ++d) {
    fed.train.push_back(
        quadratic_dataset(10 + d, kDim, static_cast<double>(d), 0.1,
                          500 + static_cast<std::uint64_t>(d)));
    fed.test.push_back(
        quadratic_dataset(4, kDim, static_cast<double>(d), 0.1,
                          600 + static_cast<std::uint64_t>(d)));
  }
  TrainerOptions opts;
  opts.rounds = 8;
  opts.seed = 29;
  opts.devices_per_round = 2;
  const Trainer trainer(model, fed, opts);
  auto run_with_pool = [&](std::size_t threads) {
    util::ThreadPool::reset_global(threads);
    return trainer.run(gd_solver(model, 3, 0.2, 0.5), "s");
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
  }
  EXPECT_EQ(serial.final_param_hash, full.final_param_hash);
}

TEST(Trainer, TargetAccuracyStopsEarly) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions opts;
  opts.rounds = 50;
  opts.target_accuracy = 0.0;  // any accuracy qualifies => stop at round 1
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(gd_solver(model, 2, 0.2, 0.5), "t");
  EXPECT_EQ(trace.rounds.size(), 1u);
}

TEST(Trainer, TargetAccuracyFiresOnFirstEvaluatedRound) {
  // With eval_every = 3 the accuracy is only observed at rounds 3, 6, ...:
  // an always-satisfied target must stop at round 3 (the first EVALUATED
  // round), producing exactly one trace entry — not round 1, and not a
  // full-length run.
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions opts;
  opts.rounds = 50;
  opts.eval_every = 3;
  opts.target_accuracy = 0.0;
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(gd_solver(model, 2, 0.2, 0.5), "t");
  ASSERT_EQ(trace.rounds.size(), 1u);
  EXPECT_EQ(trace.rounds.front().round, 3u);
}

TEST(Trainer, TargetAccuracyCanStopAtRoundZero) {
  // Regression: the target check used to live only inside the round loop,
  // so a run whose *initial* model already met the target still paid for a
  // full training round. With eval_initial on, the round-0 entry must be
  // able to end the run before any device trains.
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions opts;
  opts.rounds = 50;
  opts.eval_initial = true;
  opts.target_accuracy = 0.0;  // satisfied by any model, w̄^(0) included
  const Trainer trainer(model, fed, opts);
  const std::vector<double> w0(kDim, 0.25);
  const auto trace = trainer.run(gd_solver(model, 2, 0.2, 0.5), "t", w0);
  ASSERT_EQ(trace.rounds.size(), 1u);
  EXPECT_EQ(trace.rounds.front().round, 0u);
  // No round ran: the final model is the starting point, untouched.
  EXPECT_EQ(trace.final_parameters, w0);
  // Without eval_initial there is no round-0 observation, so the same
  // configuration stops at round 1 instead.
  TrainerOptions no_initial = opts;
  no_initial.eval_initial = false;
  const Trainer t2(model, fed, no_initial);
  const auto trace2 = t2.run(gd_solver(model, 2, 0.2, 0.5), "t", w0);
  ASSERT_EQ(trace2.rounds.size(), 1u);
  EXPECT_EQ(trace2.rounds.front().round, 1u);
}

TEST(Trainer, ProvidedInitialPointIsUsed) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 0.0);
  TrainerOptions opts;
  opts.rounds = 1;
  const Trainer trainer(model, fed, opts);
  // Start exactly at the optimum: the first round must not move the loss
  // above its floor, and mu enormous pins the iterate there.
  std::vector<double> w0(kDim, 0.0);
  for (std::size_t i = 0; i < kDim; ++i) {
    w0[i] = dataset_mean(fed.train[0])[i] * fed.weight(0) +
            dataset_mean(fed.train[1])[i] * fed.weight(1);
  }
  const auto trace =
      trainer.run(gd_solver(model, 2, 0.1, 1e9), "pin", w0);
  const double floor_loss = trainer.global_loss(w0);
  EXPECT_NEAR(trace.back().train_loss, floor_loss, 1e-6);
}

TEST(Trainer, MaxTrainLossSeesSpikes) {
  TrainingTrace t;
  t.algorithm = "x";
  for (double loss : {1.0, 9.0, 0.5}) {
    RoundMetrics m;
    m.train_loss = loss;
    t.rounds.push_back(m);
  }
  EXPECT_DOUBLE_EQ(t.max_train_loss(), 9.0);
  t.rounds[1].train_loss = std::nan("");
  EXPECT_TRUE(std::isinf(t.max_train_loss()));
}

TEST(Trainer, EvalInitialRecordsRoundZero) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions opts;
  opts.rounds = 3;
  opts.eval_initial = true;
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(gd_solver(model, 2, 0.2, 0.5), "t");
  ASSERT_EQ(trace.rounds.size(), 4u);
  EXPECT_EQ(trace.rounds.front().round, 0u);
  // Round 0 carries the loss at the initialization, before any update.
  util::Rng init_rng = util::fork(opts.seed, 0, 0, util::stream::kInit);
  const auto w0 = model->initial_parameters(init_rng);
  EXPECT_NEAR(trace.rounds.front().train_loss, trainer.global_loss(w0),
              1e-12);
  // ... and the hash of w̄^(0), like every later row's hash of w̄^(s).
  EXPECT_EQ(trace.rounds.front().param_hash, check::hash_span(w0));
}

TEST(Trainer, CommBytesAccountingMatchesFormula) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions opts;
  opts.rounds = 5;
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(gd_solver(model, 2, 0.2, 0.5), "t");
  // rounds x devices x 2 directions x the serialized dense-f64 message
  // size (comm::Message header + payload), cumulative — and the split
  // counters are symmetric: one downlink broadcast per uplink update.
  const std::size_t msg =
      comm::wire_bytes(comm::DType::kFloat64, kDim, kDim, /*sparse=*/false);
  for (std::size_t i = 0; i < trace.rounds.size(); ++i) {
    const std::size_t rounds_done = trace.rounds[i].round;
    EXPECT_EQ(trace.rounds[i].uplink_bytes, rounds_done * 2u * msg);
    EXPECT_EQ(trace.rounds[i].downlink_bytes, rounds_done * 2u * msg);
    EXPECT_EQ(trace.rounds[i].comm_bytes,
              trace.rounds[i].uplink_bytes + trace.rounds[i].downlink_bytes);
  }
}

TEST(Trainer, SampleGradEvalAccountingMatchesSolverCosts) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(12, 8, 0.0, 1.0);
  TrainerOptions opts;
  opts.rounds = 3;
  const Trainer trainer(model, fed, opts);
  const std::size_t tau = 4;
  const auto trace = trainer.run(gd_solver(model, tau, 0.2, 0.5), "t");
  // Full-gradient solver: per device per round, n anchor + tau * n inner.
  const std::size_t per_round = (12 + 8) * (1 + tau);
  EXPECT_EQ(trace.back().sample_grad_evals, 3 * per_round);
}

TEST(Trainer, GradNormEvaluationIsOptIn) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed(10, 10, 0.0, 1.0);
  TrainerOptions off;
  off.rounds = 2;
  TrainerOptions on = off;
  on.eval_grad_norm = true;
  const Trainer toff(model, fed, off);
  const Trainer ton(model, fed, on);
  const auto a = toff.run(gd_solver(model, 2, 0.2, 0.5), "t");
  const auto b = ton.run(gd_solver(model, 2, 0.2, 0.5), "t");
  EXPECT_LT(a.back().grad_norm_sq, 0.0);   // sentinel -1
  EXPECT_GE(b.back().grad_norm_sq, 0.0);
}

TEST(Trainer, MeanLocalThetaComesOnlyFromSolvesThatMeasuredIt) {
  // θ (eq. 11) is measured only by a solver with diagnostics on. A round of
  // solves that measured nothing reads "not measured" (-1), not θ = 0.
  auto model = std::make_shared<QuadraticModel>(kDim);
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < 4; ++d) {
    const double center = 0.5 * static_cast<double>(d);
    fed.train.push_back(quadratic_dataset(6 + d, kDim, center, 0.3, 10 + d));
    fed.test.push_back(quadratic_dataset(4, kDim, center, 0.3, 20 + d));
  }
  TrainerOptions opts;
  opts.rounds = 3;
  opts.seed = 5;
  const Trainer trainer(model, fed, opts);
  const std::vector<double> w0(kDim, 1.0);
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kSvrg;
  o.tau = 5;
  o.eta = 0.1;
  o.mu = 0.1;
  o.batch_size = 2;

  const auto off = trainer.run(opt::LocalSolver(model, o), "off", w0);
  ASSERT_EQ(off.rounds.size(), 3u);
  for (const auto& r : off.rounds) EXPECT_EQ(r.mean_local_theta, -1.0);

  // Round 1 starts every device from w0 with its (seed, n + 1, 1) sampling
  // stream; the row holds the ascending mean of the devices' measured θ.
  o.compute_diagnostics = true;
  const opt::LocalSolver solver(model, o);
  const auto on = trainer.run(solver, "on", w0);
  double sum = 0.0;
  for (std::size_t n = 0; n < fed.num_devices(); ++n) {
    util::Rng rng = util::fork(opts.seed, n + 1, 1, util::stream::kSampling);
    sum += solver.solve(fed.train[n], w0, rng).measured_theta;
  }
  const double want = sum / static_cast<double>(fed.num_devices());
  ASSERT_EQ(on.rounds.size(), 3u);
  EXPECT_GT(want, 0.0);
  EXPECT_EQ(on.rounds[0].mean_local_theta, want);
  for (const auto& r : on.rounds) EXPECT_GT(r.mean_local_theta, 0.0);
}

}  // namespace
}  // namespace fedvr::fl
