// Trainer + fedvr::obs integration: profiled runs populate measured phase
// timings and the timing-model estimate, export valid trace/metrics files,
// and never perturb the training trajectory.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "fl/trainer.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "testing/quadratic_model.h"
#include "testing/temp_dir.h"
#include "util/error.h"

namespace fedvr::fl {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;

constexpr std::size_t kDim = 4;

data::FederatedDataset two_device_fed() {
  data::FederatedDataset fed;
  fed.train.push_back(quadratic_dataset(24, kDim, 0.0, 0.1, 100));
  fed.train.push_back(quadratic_dataset(8, kDim, 1.0, 0.1, 200));
  fed.test.push_back(quadratic_dataset(8, kDim, 0.0, 0.1, 300));
  fed.test.push_back(quadratic_dataset(8, kDim, 1.0, 0.1, 400));
  return fed;
}

opt::LocalSolver sgd_solver(std::shared_ptr<const nn::Model> model,
                            std::size_t tau) {
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kSvrg;
  o.tau = tau;
  o.eta = 0.1;
  o.mu = 0.1;
  return opt::LocalSolver(std::move(model), o);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Spans/flags are process-global: isolate each test run.
class TrainerObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = obs::set_enabled(false);
    obs::clear_spans();
    dir_ = testing::make_temp_dir("fedvr_trainer_obs_test");
  }
  void TearDown() override {
    obs::clear_spans();
    obs::set_enabled(prev_);
    std::filesystem::remove_all(dir_);
  }
  bool prev_ = false;
  std::filesystem::path dir_;
};

TEST_F(TrainerObsTest, MeasuredPhaseTimingsPopulatedAndMonotone) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions opts;
  opts.rounds = 5;
  opts.observability.enabled = true;
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(sgd_solver(model, 10), "profiled");

  ASSERT_EQ(trace.rounds.size(), 5u);
  double prev_sum = 0.0;
  for (const auto& r : trace.rounds) {
    ASSERT_TRUE(r.measured.has_value())
        << "round " << r.round << " missing measured timings";
    // Cumulative timings: nondecreasing round over round, and every round
    // does nonzero local-solve plus eval work.
    EXPECT_GE(r.measured->sum(), prev_sum);
    prev_sum = r.measured->sum();
    EXPECT_GT(r.measured->local_solve, 0.0);
    EXPECT_GT(r.measured->eval, 0.0);
    // Phases are a decomposition of the loop body: their sum cannot exceed
    // the cumulative wall clock.
    EXPECT_LE(r.measured->sum(), r.wall_seconds + 1e-9);
  }
  // The phases cover nearly all of the round loop: the unattributed
  // remainder (trace bookkeeping, logging) must be small. Keep a loose
  // bound — CI machines are noisy.
  const auto& last = trace.rounds.back();
  EXPECT_GT(last.measured->sum(), 0.5 * last.wall_seconds);

  ASSERT_TRUE(trace.measured_timing.has_value());
  EXPECT_GE(trace.measured_timing->d_com, 0.0);
  EXPECT_GT(trace.measured_timing->d_cmp, 0.0);
  EXPECT_GT(trace.measured_timing->round_time(10),
            trace.measured_timing->round_time(1));
}

TEST_F(TrainerObsTest, MeasuredDcomIsBroadcastPlusAggregatePerRound) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions opts;
  opts.rounds = 5;
  opts.observability.enabled = true;
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(sgd_solver(model, 10), "profiled");

  ASSERT_TRUE(trace.measured_timing.has_value());
  ASSERT_TRUE(trace.back().measured.has_value());
  const PhaseTimings& phases = *trace.back().measured;
  // Eval is diagnostics, not round time: every round evaluated, yet d_com
  // holds only the broadcast and aggregate phases.
  EXPECT_GT(phases.eval, 0.0);
  const double com = phases.broadcast + phases.aggregate;
  EXPECT_NEAR(trace.measured_timing->d_com * 5.0, com, 1e-12 * com);
}

TEST_F(TrainerObsTest, MeasuredDcmpIsDeviceSolveSecondsPerInnerIteration) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions opts;
  opts.rounds = 4;
  opts.devices_per_round = 1;  // the idle device's solver never runs
  opts.parallel = false;       // device solves nest inside the phase bracket
  opts.observability.enabled = true;
  const std::size_t tau = 2000;
  obs::Registry::global().reset_values();
  const auto trace =
      Trainer(model, fed, opts).run(sgd_solver(model, tau), "d_cmp");

  std::uint64_t iterations = 0;
  for (const auto& c : obs::Registry::global().snapshot().counters) {
    if (c.name == "solver.inner_iterations") iterations = c.value;
  }
  // Only the sampled participant's inner iterations count.
  EXPECT_EQ(iterations, 4u * tau);
  ASSERT_TRUE(trace.measured_timing.has_value());
  ASSERT_TRUE(trace.back().measured.has_value());
  const double solve_seconds =
      trace.measured_timing->d_cmp * static_cast<double>(iterations);
  const double local_solve = trace.back().measured->local_solve;
  // The device solves are most of the local-solve phase and never more
  // than it; the remainder is span and workspace bookkeeping.
  EXPECT_GT(solve_seconds, 0.0);
  EXPECT_LE(solve_seconds, local_solve + 1e-9);
  EXPECT_GT(solve_seconds, 0.5 * local_solve);
}

TEST_F(TrainerObsTest, EachMeasuredPhaseAccumulatesAcrossRows) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions opts;
  opts.rounds = 4;
  opts.eval_initial = true;
  opts.observability.enabled = true;
  const auto trace =
      Trainer(model, fed, opts).run(sgd_solver(model, 10), "phases");

  ASSERT_EQ(trace.rounds.size(), 5u);
  // The round-0 row is an evaluation of w̄⁰ before any round ran.
  ASSERT_TRUE(trace.rounds[0].measured.has_value());
  const PhaseTimings& initial = *trace.rounds[0].measured;
  EXPECT_EQ(initial.broadcast, 0.0);
  EXPECT_EQ(initial.local_solve, 0.0);
  EXPECT_EQ(initial.aggregate, 0.0);
  EXPECT_GT(initial.eval, 0.0);
  for (std::size_t i = 1; i < trace.rounds.size(); ++i) {
    ASSERT_TRUE(trace.rounds[i].measured.has_value()) << "row " << i;
    const PhaseTimings& prev = *trace.rounds[i - 1].measured;
    const PhaseTimings& cur = *trace.rounds[i].measured;
    // Every phase is a running total; each round solves and evaluates.
    EXPECT_GE(cur.broadcast, prev.broadcast) << "row " << i;
    EXPECT_GE(cur.aggregate, prev.aggregate) << "row " << i;
    EXPECT_GT(cur.local_solve, prev.local_solve) << "row " << i;
    EXPECT_GT(cur.eval, prev.eval) << "row " << i;
  }
}

TEST_F(TrainerObsTest, RunStoppedAtRoundZeroMeasuresNoRoundTiming) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions opts;
  opts.rounds = 3;
  opts.eval_initial = true;
  opts.target_accuracy = 0.0;  // met by w̄⁰: no round runs
  opts.observability.enabled = true;
  const auto trace =
      Trainer(model, fed, opts).run(sgd_solver(model, 5), "stopped");

  ASSERT_EQ(trace.rounds.size(), 1u);
  ASSERT_TRUE(trace.rounds[0].measured.has_value());
  EXPECT_GT(trace.rounds[0].measured->eval, 0.0);
  EXPECT_EQ(trace.rounds[0].measured->local_solve, 0.0);
  // No round ran, so there is no eq. 19 delay to estimate.
  EXPECT_FALSE(trace.measured_timing.has_value());
}

TEST_F(TrainerObsTest, UnprofiledRunLeavesMeasuredEmpty) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions opts;
  opts.rounds = 2;
  const Trainer trainer(model, fed, opts);
  const auto trace = trainer.run(sgd_solver(model, 5), "plain");
  EXPECT_FALSE(trace.measured_timing.has_value());
  for (const auto& r : trace.rounds) EXPECT_FALSE(r.measured.has_value());
}

TEST_F(TrainerObsTest, WritesChromeTraceWithNestedRoundPhaseDeviceSpans) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions opts;
  opts.rounds = 3;
  opts.observability.enabled = true;
  opts.observability.chrome_trace_path = (dir_ / "trace.json").string();
  const Trainer trainer(model, fed, opts);
  (void)trainer.run(sgd_solver(model, 5), "traced");

  const std::string json = read_file(dir_ / "trace.json");
  // Structural validity of the trace_event envelope.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("],\"displayTimeUnit\":\"ms\"}"), std::string::npos);
  // All three nesting levels present.
  EXPECT_NE(json.find("\"name\":\"round\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"round.broadcast\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"round.local_solve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"round.aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"round.eval\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"device.solve\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"solver.solve\""), std::string::npos);

  // And in memory: the round span contains its phases.
  const auto spans = obs::collect_spans();
  std::size_t rounds_seen = 0;
  for (const auto& s : spans) {
    if (std::string_view(s.name) == "round") ++rounds_seen;
  }
  EXPECT_EQ(rounds_seen, 3u);
}

TEST_F(TrainerObsTest, WritesMetricsSnapshotJsonl) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions opts;
  opts.rounds = 2;
  opts.observability.enabled = true;
  opts.observability.metrics_jsonl_path = (dir_ / "metrics.jsonl").string();
  const Trainer trainer(model, fed, opts);
  (void)trainer.run(sgd_solver(model, 5), "metered");

  const std::string jsonl = read_file(dir_ / "metrics.jsonl");
  EXPECT_NE(jsonl.find("\"name\":\"solver.anchor_gradients\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"solver.inner_iterations\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"solver.sample_grad_evals\""),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"span_summary\",\"name\":\"round\""),
            std::string::npos);
  // Every line is a JSON object.
  std::istringstream lines(jsonl);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST_F(TrainerObsTest, ObservabilityDoesNotPerturbTraining) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions plain;
  plain.rounds = 4;
  TrainerOptions profiled = plain;
  profiled.observability.enabled = true;
  const auto t_plain =
      Trainer(model, fed, plain).run(sgd_solver(model, 8), "a");
  const auto t_profiled =
      Trainer(model, fed, profiled).run(sgd_solver(model, 8), "b");
  ASSERT_EQ(t_plain.final_parameters.size(),
            t_profiled.final_parameters.size());
  for (std::size_t i = 0; i < t_plain.final_parameters.size(); ++i) {
    EXPECT_DOUBLE_EQ(t_plain.final_parameters[i],
                     t_profiled.final_parameters[i]);
  }
  EXPECT_EQ(t_plain.rounds.size(), t_profiled.rounds.size());
  for (std::size_t i = 0; i < t_plain.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(t_plain.rounds[i].train_loss,
                     t_profiled.rounds[i].train_loss);
  }
}

TEST_F(TrainerObsTest, RunRestoresPreviousEnableState) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = two_device_fed();
  TrainerOptions opts;
  opts.rounds = 1;
  opts.observability.enabled = true;
  const Trainer trainer(model, fed, opts);
  ASSERT_FALSE(obs::enabled());
  (void)trainer.run(sgd_solver(model, 2), "scoped");
  EXPECT_FALSE(obs::enabled());
}

}  // namespace
}  // namespace fedvr::fl
