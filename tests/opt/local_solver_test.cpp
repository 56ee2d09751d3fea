#include "opt/local_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "check/check.h"
#include "nn/models.h"
#include "tensor/vecops.h"
#include "testing/quadratic_model.h"
#include "util/error.h"

namespace fedvr::opt {
namespace {

using fedvr::testing::dataset_mean;
using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;
using fedvr::util::Error;
using fedvr::util::Rng;

std::shared_ptr<const nn::Model> quad_model(std::size_t dim) {
  return std::make_shared<QuadraticModel>(dim);
}

LocalSolverOptions base_options() {
  LocalSolverOptions o;
  o.estimator = Estimator::kSvrg;
  o.tau = 15;
  o.eta = 0.2;
  o.mu = 0.0;
  o.batch_size = 2;
  return o;
}

TEST(LocalSolver, RejectsInvalidOptions) {
  auto model = quad_model(3);
  auto bad_eta = base_options();
  bad_eta.eta = 0.0;
  EXPECT_THROW(LocalSolver(model, bad_eta), Error);
  auto bad_mu = base_options();
  bad_mu.mu = -1.0;
  EXPECT_THROW(LocalSolver(model, bad_mu), Error);
  auto bad_batch = base_options();
  bad_batch.batch_size = 0;
  EXPECT_THROW(LocalSolver(model, bad_batch), Error);
  EXPECT_THROW(LocalSolver(nullptr, base_options()), Error);
}

// +inf passes eta > 0, mu >= 0 and schedule_decay >= 0, and would make
// the first prox step (eq. 10) compute inf/inf. The checks are always on,
// so this holds with fedvr::check compiled out too.
TEST(LocalSolver, RejectsInfiniteStepOptions) {
  const auto model = quad_model(3);
  const double inf = std::numeric_limits<double>::infinity();
  auto eta = base_options();
  eta.eta = inf;
  EXPECT_THROW(LocalSolver(model, eta), Error);
  auto mu = base_options();
  mu.mu = inf;
  EXPECT_THROW(LocalSolver(model, mu), Error);
  auto decay = base_options();
  decay.schedule_decay = inf;
  EXPECT_THROW(LocalSolver(model, decay), Error);
}

TEST(LocalSolver, RejectsMismatchedAnchorAndEmptyData) {
  auto model = quad_model(3);
  const LocalSolver solver(model, base_options());
  const auto ds = quadratic_dataset(10, 3, 0.0, 1.0, 1);
  Rng rng(1);
  std::vector<double> wrong_anchor(4, 0.0);
  if (check::active()) {
    EXPECT_THROW((void)solver.solve(ds, wrong_anchor, rng), Error);
  }
  const data::Dataset empty(tensor::Shape({3}), 0, 2);
  std::vector<double> anchor(3, 0.0);
  EXPECT_THROW((void)solver.solve(empty, anchor, rng), Error);
}

TEST(LocalSolver, DecreasesTheSurrogateObjective) {
  auto model = quad_model(5);
  const auto ds = quadratic_dataset(40, 5, 2.0, 1.0, 3);
  auto opts = base_options();
  opts.mu = 0.5;
  opts.compute_diagnostics = true;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(5, -1.0);
  Rng rng(7);
  const auto result = solver.solve(ds, anchor, rng);
  // J_n(result) < J_n(anchor): compare losses plus prox terms.
  const double j_anchor = result.anchor_loss;  // prox term is 0 at anchor
  const double f_result = model->full_loss(result.w, ds);
  const double prox_term =
      0.5 * opts.mu * tensor::squared_distance(result.w, anchor);
  EXPECT_LT(f_result + prox_term, j_anchor);
}

TEST(LocalSolver, DeterministicGivenSameRngFork) {
  auto model = quad_model(4);
  const auto ds = quadratic_dataset(30, 4, 0.0, 2.0, 5);
  const LocalSolver solver(model, base_options());
  const std::vector<double> anchor(4, 3.0);
  Rng r1 = util::fork(9, 1, 1, 0);
  Rng r2 = util::fork(9, 1, 1, 0);
  const auto a = solver.solve(ds, anchor, r1);
  const auto b = solver.solve(ds, anchor, r2);
  EXPECT_EQ(a.w, b.w);
  EXPECT_EQ(a.sample_gradient_evals, b.sample_gradient_evals);
}

// The workspace solve copies its iterate into w_out: whatever w_out held
// before, of any size, it ends with the same bits as a fresh solve returns.
TEST(LocalSolver, WorkspaceSolveOverwritesAnyOutputBuffer) {
  auto model = quad_model(4);
  const auto ds = quadratic_dataset(30, 4, 0.0, 2.0, 5);
  const LocalSolver solver(model, base_options());
  const std::vector<double> anchor(4, 3.0);
  Rng r1 = util::fork(9, 1, 1, 0);
  const auto fresh = solver.solve(ds, anchor, r1);
  SolverWorkspace ws;
  for (std::size_t len : {0, 2, 4, 11}) {
    std::vector<double> w_out(len, -7.5);
    Rng r2 = util::fork(9, 1, 1, 0);
    const auto result = solver.solve(ds, anchor, r2, ws, w_out);
    EXPECT_TRUE(result.w.empty());
    EXPECT_EQ(w_out, fresh.w) << "w_out held " << len << " values";
  }
}

// ---- Estimator exactness on quadratics: SVRG and SARAH reduce to exact
// full gradients, so all three trajectories coincide (see
// testing/quadratic_model.h). The definitive check that eq. (8a)/(8b) are
// implemented correctly. ----

TEST(LocalSolver, SvrgAndSarahMatchFullGradientOnQuadratic) {
  auto model = quad_model(6);
  const auto ds = quadratic_dataset(25, 6, 1.0, 2.0, 11);
  const std::vector<double> anchor(6, -2.0);

  auto make_result = [&](Estimator e) {
    auto opts = base_options();
    opts.estimator = e;
    opts.tau = 10;
    opts.mu = 0.3;
    opts.batch_size = 1;
    const LocalSolver solver(model, opts);
    Rng rng(21);
    return solver.solve(ds, anchor, rng);
  };
  const auto gd = make_result(Estimator::kFullGradient);
  const auto svrg = make_result(Estimator::kSvrg);
  const auto sarah = make_result(Estimator::kSarah);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(svrg.w[i], gd.w[i], 1e-10);
    EXPECT_NEAR(sarah.w[i], gd.w[i], 1e-10);
  }
}

TEST(LocalSolver, SgdDiffersFromFullGradientOnQuadratic) {
  // Sanity check that the previous test is meaningful: plain SGD does NOT
  // collapse to GD on the same data.
  auto model = quad_model(6);
  const auto ds = quadratic_dataset(25, 6, 1.0, 2.0, 11);
  const std::vector<double> anchor(6, -2.0);
  auto opts = base_options();
  opts.batch_size = 1;
  opts.tau = 10;
  opts.estimator = Estimator::kSgd;
  const LocalSolver sgd_solver(model, opts);
  opts.estimator = Estimator::kFullGradient;
  const LocalSolver gd_solver(model, opts);
  Rng r1(21), r2(21);
  const auto sgd = sgd_solver.solve(ds, anchor, r1);
  const auto gd = gd_solver.solve(ds, anchor, r2);
  EXPECT_GT(tensor::squared_distance(sgd.w, gd.w), 1e-8);
}

TEST(LocalSolver, ProxGradientTrajectoryMatchesClosedForm) {
  // mu = 0, full gradient on the quadratic: w_{t+1} = w_t - eta (w_t - m),
  // so w_t = m + (1-eta)^t (w_0 - m).
  const std::size_t dim = 3;
  auto model = quad_model(dim);
  const auto ds = quadratic_dataset(10, dim, 0.5, 1.0, 13);
  const auto mean = dataset_mean(ds);
  LocalSolverOptions opts;
  opts.estimator = Estimator::kFullGradient;
  opts.tau = 8;
  opts.eta = 0.25;
  opts.mu = 0.0;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(dim, 4.0);
  Rng rng(1);
  const auto result = solver.solve(ds, anchor, rng);
  const double shrink = std::pow(1.0 - opts.eta, opts.tau + 1.0);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(result.w[i], mean[i] + shrink * (anchor[i] - mean[i]), 1e-10);
  }
}

TEST(LocalSolver, LargeMuPinsIterateToAnchor) {
  auto model = quad_model(4);
  const auto ds = quadratic_dataset(20, 4, 5.0, 1.0, 17);
  auto opts = base_options();
  opts.mu = 1e8;
  opts.tau = 10;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(4, -1.0);
  Rng rng(3);
  const auto result = solver.solve(ds, anchor, rng);
  EXPECT_LT(std::sqrt(tensor::squared_distance(result.w, anchor)), 1e-3);
}

TEST(LocalSolver, AnchorGradNormMatchesAnalytic) {
  auto model = quad_model(3);
  const auto ds = quadratic_dataset(15, 3, 1.0, 0.5, 19);
  const auto mean = dataset_mean(ds);
  const LocalSolver solver(model, base_options());
  const std::vector<double> anchor = {3.0, -2.0, 0.0};
  Rng rng(5);
  const auto result = solver.solve(ds, anchor, rng);
  EXPECT_NEAR(result.anchor_grad_norm,
              std::sqrt(tensor::squared_distance(anchor, mean)), 1e-10);
}

TEST(LocalSolver, GradientEvaluationAccountingPerEstimator) {
  auto model = quad_model(3);
  const std::size_t n = 20;
  const auto ds = quadratic_dataset(n, 3, 0.0, 1.0, 23);
  const std::vector<double> anchor(3, 1.0);
  const std::size_t tau = 7, B = 4;
  auto count = [&](Estimator e) {
    LocalSolverOptions o;
    o.estimator = e;
    o.tau = tau;
    o.eta = 0.1;
    o.mu = 0.1;
    o.batch_size = B;
    const LocalSolver solver(model, o);
    Rng rng(29);
    return solver.solve(ds, anchor, rng).sample_gradient_evals;
  };
  EXPECT_EQ(count(Estimator::kSgd), n + tau * B);
  EXPECT_EQ(count(Estimator::kSvrg), n + 2 * tau * B);
  EXPECT_EQ(count(Estimator::kSarah), n + 2 * tau * B);
  EXPECT_EQ(count(Estimator::kFullGradient), n + tau * n);
}

TEST(LocalSolver, BatchLargerThanDatasetUsesFullBatch) {
  auto model = quad_model(3);
  const auto ds = quadratic_dataset(5, 3, 0.0, 1.0, 31);
  LocalSolverOptions o = base_options();
  o.batch_size = 100;  // > dataset
  o.estimator = Estimator::kSgd;
  o.tau = 3;
  const LocalSolver sgd(model, o);
  o.estimator = Estimator::kFullGradient;
  const LocalSolver gd(model, o);
  const std::vector<double> anchor(3, 2.0);
  Rng r1(1), r2(1);
  const auto a = sgd.solve(ds, anchor, r1);
  const auto b = gd.solve(ds, anchor, r2);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(a.w[i], b.w[i], 1e-12);
}

TEST(LocalSolver, DiagnosticsMeasureThetaCriterion) {
  auto model = quad_model(4);
  const auto ds = quadratic_dataset(30, 4, 1.0, 1.0, 37);
  auto opts = base_options();
  opts.estimator = Estimator::kFullGradient;
  opts.mu = 0.2;
  opts.tau = 40;
  opts.eta = 0.3;
  opts.compute_diagnostics = true;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(4, 3.0);
  Rng rng(41);
  const auto result = solver.solve(ds, anchor, rng);
  EXPECT_GT(result.surrogate_grad_norm, 0.0);
  // Long, well-conditioned run: the theta criterion (eq. 11) is satisfied
  // with a tight theta.
  EXPECT_LT(result.measured_theta, 0.1);
  EXPECT_NEAR(result.measured_theta,
              result.surrogate_grad_norm / result.anchor_grad_norm, 1e-12);
}

TEST(LocalSolver, DiagnosticsOffLeavesFieldsZero) {
  auto model = quad_model(3);
  const auto ds = quadratic_dataset(10, 3, 0.0, 1.0, 43);
  const LocalSolver solver(model, base_options());
  const std::vector<double> anchor(3, 0.5);
  Rng rng(47);
  const auto result = solver.solve(ds, anchor, rng);
  EXPECT_EQ(result.surrogate_grad_norm, 0.0);
  EXPECT_EQ(result.measured_theta, 0.0);
}

TEST(LocalSolver, UniformRandomSelectionIsDeterministicAndValid) {
  auto model = quad_model(3);
  const auto ds = quadratic_dataset(12, 3, 0.0, 1.0, 53);
  auto opts = base_options();
  opts.selection = IterateSelection::kUniformRandom;
  opts.tau = 5;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(3, 2.0);
  Rng r1(3), r2(3);
  const auto a = solver.solve(ds, anchor, r1);
  const auto b = solver.solve(ds, anchor, r2);
  EXPECT_EQ(a.w, b.w);
}

TEST(LocalSolver, UniformRandomCanReturnTheAnchor) {
  // With tau = 0 the only selectable iterate is t' = 0, i.e. the anchor.
  auto model = quad_model(3);
  const auto ds = quadratic_dataset(12, 3, 0.0, 1.0, 59);
  auto opts = base_options();
  opts.selection = IterateSelection::kUniformRandom;
  opts.tau = 0;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor = {1.0, 2.0, 3.0};
  Rng rng(5);
  const auto result = solver.solve(ds, anchor, rng);
  EXPECT_EQ(result.w, anchor);
}

TEST(LocalSolver, TauZeroWithLastSelectionTakesOneProxStep) {
  // tau = 0, kLast: returns w^(1) = prox(anchor - eta grad F(anchor)).
  const std::size_t dim = 3;
  auto model = quad_model(dim);
  const auto ds = quadratic_dataset(10, dim, 0.0, 1.0, 61);
  const auto mean = dataset_mean(ds);
  LocalSolverOptions opts;
  opts.estimator = Estimator::kSvrg;
  opts.tau = 0;
  opts.eta = 0.5;
  opts.mu = 0.0;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(dim, 2.0);
  Rng rng(67);
  const auto result = solver.solve(ds, anchor, rng);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(result.w[i], anchor[i] - 0.5 * (anchor[i] - mean[i]), 1e-10);
  }
}

TEST(LocalSolver, WithReplacementSamplingRepeatsIndices) {
  // Over tau = n draws of batch 1, i.i.d. sampling with replacement almost
  // surely repeats some index. The iterate is frozen, so v_t = w_t - x_{i_t}
  // names the sampled row.
  auto model = quad_model(2);
  const std::size_t n = 16;
  const auto ds = quadratic_dataset(n, 2, 0.0, 1.0, 89);
  auto opts = base_options();
  opts.estimator = Estimator::kSgd;
  opts.batch_size = 1;
  opts.tau = n;
  opts.mu = 0.0;
  opts.eta = 1e-12;
  std::vector<int> hits(n, 0);
  opts.observer = [&](std::size_t, std::span<const double> v,
                      std::span<const double> w) {
    double best = 1e300;
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto x = ds.sample(i);
      double d2 = 0.0;
      for (std::size_t j = 0; j < 2; ++j) {
        const double diff = (w[j] - x[j]) - v[j];
        d2 += diff * diff;
      }
      if (d2 < best) {
        best = d2;
        best_i = i;
      }
    }
    hits[best_i]++;
  };
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(2, 0.0);
  Rng rng(5);
  (void)solver.solve(ds, anchor, rng);
  EXPECT_GT(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(LocalSolver, DiminishingScheduleMatchesManualTrajectory) {
  // Full-gradient quadratic with mu = 0:
  //   w_{t+1} = w_t - eta_t (w_t - m),  eta_t = eta/(1 + decay*t).
  const std::size_t dim = 2;
  auto model = quad_model(dim);
  const auto ds = quadratic_dataset(6, dim, 1.0, 0.5, 97);
  const auto mean = dataset_mean(ds);
  LocalSolverOptions opts;
  opts.estimator = Estimator::kFullGradient;
  opts.tau = 5;
  opts.eta = 0.4;
  opts.mu = 0.0;
  opts.schedule = StepSchedule::kDiminishing;
  opts.schedule_decay = 0.5;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(dim, 3.0);
  Rng rng(7);
  const auto result = solver.solve(ds, anchor, rng);
  double shrink = 1.0;
  for (std::size_t t = 0; t <= opts.tau; ++t) {
    shrink *= 1.0 - 0.4 / (1.0 + 0.5 * static_cast<double>(t));
  }
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(result.w[i], mean[i] + shrink * (anchor[i] - mean[i]),
                1e-10);
  }
}

TEST(LocalSolver, NegativeScheduleDecayThrows) {
  auto model = quad_model(2);
  auto opts = base_options();
  opts.schedule_decay = -0.1;
  EXPECT_THROW(LocalSolver(model, opts), Error);
}

TEST(LocalSolver, RunsTheFullTauBudget) {
  auto model = quad_model(3);
  const auto ds = quadratic_dataset(10, 3, 0.0, 1.0, 103);
  auto opts = base_options();
  opts.tau = 12;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(3, 1.0);
  Rng rng(5);
  EXPECT_EQ(solver.solve(ds, anchor, rng).iterations_run, 12u);
}

TEST(LocalSolver, ObserverSeesEveryInnerIteration) {
  auto model = quad_model(3);
  const auto ds = quadratic_dataset(10, 3, 0.0, 1.0, 73);
  auto opts = base_options();
  opts.tau = 6;
  std::vector<std::size_t> seen;
  opts.observer = [&seen](std::size_t t, std::span<const double> v,
                          std::span<const double> w) {
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(w.size(), 3u);
    seen.push_back(t);
  };
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(3, 1.0);
  Rng rng(7);
  (void)solver.solve(ds, anchor, rng);
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t t = 1; t <= 6; ++t) EXPECT_EQ(seen[t - 1], t);
}

TEST(LocalSolver, ObserverReportsExactGradientOnQuadratic) {
  // On quadratics the SVRG direction equals the exact full gradient
  // w_t - mean; the observer lets us verify eq. (8b) iterate by iterate.
  auto model = quad_model(2);
  const auto ds = quadratic_dataset(8, 2, 0.5, 1.0, 79);
  const auto mean = dataset_mean(ds);
  auto opts = base_options();
  opts.estimator = Estimator::kSvrg;
  opts.tau = 5;
  opts.mu = 0.0;
  opts.batch_size = 1;
  opts.observer = [&mean](std::size_t, std::span<const double> v,
                          std::span<const double> w) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      EXPECT_NEAR(v[i], w[i] - mean[i], 1e-12);
    }
  };
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(2, -1.0);
  Rng rng(11);
  (void)solver.solve(ds, anchor, rng);
}

TEST(LocalSolver, WorksWithRealLogisticRegression) {
  // Integration: the solver must drive a real nn model, not just the test
  // quadratic.
  auto model = nn::make_logistic_regression(8, 3);
  data::Dataset ds(tensor::Shape({8}), 30, 3);
  Rng rng(71);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (auto& v : ds.mutable_sample(i)) v = rng.normal();
    ds.set_label(i, static_cast<int>(rng.below(3)));
  }
  auto w0 = model->initial_parameters(rng);
  LocalSolverOptions opts;
  opts.estimator = Estimator::kSarah;
  opts.tau = 30;
  opts.eta = 0.2;
  opts.mu = 0.1;
  opts.batch_size = 4;
  const LocalSolver solver(model, opts);
  const double loss_before = model->full_loss(w0, ds);
  const auto result = solver.solve(ds, w0, rng);
  EXPECT_LT(model->full_loss(result.w, ds), loss_before);
}

// Forwards every call to a wrapped model and counts the record and replay
// calls; with `forward_record_replay` off it keeps Model's defaults, which
// record nothing and recompute, the way a decorator that predates them
// does.
class ReplayCounter final : public nn::Model {
 public:
  ReplayCounter(std::shared_ptr<const nn::Model> inner,
                bool forward_record_replay)
      : inner_(std::move(inner)), forward_(forward_record_replay) {}

  [[nodiscard]] std::size_t num_parameters() const override {
    return inner_->num_parameters();
  }
  void initialize(Rng& rng, std::span<double> w) const override {
    inner_->initialize(rng, w);
  }
  [[nodiscard]] double loss(std::span<const double> w,
                            const data::Dataset& ds,
                            std::span<const std::size_t> indices)
      const override {
    return inner_->loss(w, ds, indices);
  }
  double loss_and_gradient(std::span<const double> w, const data::Dataset& ds,
                           std::span<const std::size_t> indices,
                           std::span<double> grad) const override {
    return inner_->loss_and_gradient(w, ds, indices, grad);
  }
  void predict(std::span<const double> w, const data::Dataset& ds,
               std::span<const std::size_t> indices,
               std::span<std::size_t> out) const override {
    inner_->predict(w, ds, indices, out);
  }
  double record_gradient(std::span<const double> w, const data::Dataset& ds,
                         std::span<double> grad,
                         nn::GradientRecord& record) const override {
    ++records;
    return forward_ ? inner_->record_gradient(w, ds, grad, record)
                    : Model::record_gradient(w, ds, grad, record);
  }
  void replay_gradient(std::span<const double> w, const data::Dataset& ds,
                       std::span<const std::size_t> indices,
                       const nn::GradientRecord& record,
                       std::span<const std::size_t> record_rows,
                       std::span<double> grad) const override {
    ++replays;
    if (forward_) {
      inner_->replay_gradient(w, ds, indices, record, record_rows, grad);
    } else {
      Model::replay_gradient(w, ds, indices, record, record_rows, grad);
    }
  }

  mutable std::size_t records = 0;
  mutable std::size_t replays = 0;

 private:
  std::shared_ptr<const nn::Model> inner_;
  bool forward_;
};

// Only SVRG's reference point stays put for a whole solve: it records the
// line-4 pass once and replays it at every step, and its iterate has the
// bits of the recompute path. SARAH's reference point moves every step,
// and the other estimators have none.
TEST(LocalSolver, OnlySvrgReplaysTheAnchorRecord) {
  const auto logistic = nn::make_logistic_regression(60, 10);
  data::Dataset ds(tensor::Shape({60}), 90, 10);
  Rng data_rng(73);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (auto& v : ds.mutable_sample(i)) v = data_rng.normal();
    ds.set_label(i, static_cast<int>(data_rng.below(10)));
  }
  const auto anchor = logistic->initial_parameters(data_rng);
  for (const Estimator estimator :
       {Estimator::kSvrg, Estimator::kSarah, Estimator::kSgd,
        Estimator::kFullGradient}) {
    for (const std::size_t batch : {8, 90}) {
      LocalSolverOptions opts;
      opts.estimator = estimator;
      opts.tau = 6;
      opts.eta = 0.05;
      opts.mu = 0.1;
      opts.batch_size = batch;
      const auto replaying = std::make_shared<ReplayCounter>(logistic, true);
      const auto recomputing =
          std::make_shared<ReplayCounter>(logistic, false);
      Rng rng_a(5);
      Rng rng_b(5);
      const auto a = LocalSolver(replaying, opts).solve(ds, anchor, rng_a);
      const auto b = LocalSolver(recomputing, opts).solve(ds, anchor, rng_b);
      const bool svrg = estimator == Estimator::kSvrg;
      const std::string label = std::string(estimator_name(estimator)) +
                                " B=" + std::to_string(batch);
      EXPECT_EQ(replaying->records, svrg ? 1U : 0U) << label;
      EXPECT_EQ(replaying->replays, svrg ? opts.tau : 0U) << label;
      EXPECT_EQ(recomputing->replays, replaying->replays) << label;
      ASSERT_EQ(a.w.size(), b.w.size()) << label;
      EXPECT_EQ(std::memcmp(a.w.data(), b.w.data(),
                            a.w.size() * sizeof(double)),
                0)
          << label;
      EXPECT_EQ(a.anchor_loss, b.anchor_loss) << label;
      EXPECT_EQ(a.sample_gradient_evals, b.sample_gradient_evals) << label;
    }
  }
}

}  // namespace
}  // namespace fedvr::opt
