// An independent reference for a full FedProxVR run: Algorithm 1 written
// out with plain loops, with no thread pool, arena, comm::Channel or
// fl::Trainer. On a full-participation, fault-free run over a dense channel
// with eval_every = 1, Trainer::run must reproduce every row's train_loss
// and test_accuracy and the final parameters:
//   * in round s, device n solves from w̄^(s-1) with the plain-loop solver
//     of testing/reference_solver.h, on fork(seed, n + 1, s, kSampling);
//   * line 12: w̄^(s) = Σ_n (p_n / Σ_m p_m) w_n with p_n = D_n / D, the
//     weights summed in ascending device order;
//   * each row at w̄: F̄(w̄) = Σ_n p_n F_n(w̄), and the fraction of the
//     devices' test samples, all pooled, that w̄ classifies correctly.
// The model's loss, gradient and predict calls are shared with the engine;
// every other operation is the reference's own. The 60-feature logistic
// cases run every model call through the small-product GEMM path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "testing/quadratic_model.h"
#include "testing/reference_solver.h"
#include "util/rng.h"

namespace fedvr::fl {
namespace {

struct ReferenceRun {
  std::vector<double> train_loss;     // at w̄^(s), s = 0..T
  std::vector<double> test_accuracy;  // at w̄^(s), s = 0..T
  std::vector<double> final_params;   // w̄^(T)
};

ReferenceRun reference_fedproxvr(const nn::Model& model,
                                 const data::FederatedDataset& fed,
                                 const opt::LocalSolverOptions& o,
                                 std::uint64_t seed, std::size_t rounds,
                                 const std::vector<double>& w0) {
  const std::size_t devices = fed.num_devices();
  const std::size_t dim = model.num_parameters();
  std::size_t total = 0;
  for (const auto& ds : fed.train) total += ds.size();
  std::vector<double> p(devices);  // p_n = D_n / D
  for (std::size_t n = 0; n < devices; ++n) {
    p[n] = static_cast<double>(fed.train[n].size()) /
           static_cast<double>(total);
  }

  ReferenceRun run;
  const auto record = [&](const std::vector<double>& w) {
    double loss = 0.0;
    for (std::size_t n = 0; n < devices; ++n) {
      loss += p[n] * model.full_loss(w, fed.train[n]);
    }
    std::size_t correct = 0;
    std::size_t samples = 0;
    for (const data::Dataset& ds : fed.test) {
      for (std::size_t i = 0; i < ds.size(); ++i) {
        const std::size_t index[] = {i};
        std::size_t predicted[1] = {0};
        model.predict(w, ds, index, predicted);
        if (predicted[0] == static_cast<std::size_t>(ds.label(i))) ++correct;
        ++samples;
      }
    }
    run.train_loss.push_back(loss);
    run.test_accuracy.push_back(static_cast<double>(correct) /
                                static_cast<double>(samples));
  };

  std::vector<double> w = w0;
  record(w);
  std::vector<std::vector<double>> local(devices);
  for (std::size_t s = 1; s <= rounds; ++s) {
    for (std::size_t n = 0; n < devices; ++n) {
      util::Rng rng = util::fork(seed, n + 1, s, util::stream::kSampling);
      local[n] = testing::reference_solve(model, o, fed.train[n], w, rng).w;
    }
    double weight_sum = 0.0;
    for (std::size_t n = 0; n < devices; ++n) weight_sum += p[n];
    std::vector<double> next(dim, 0.0);
    for (std::size_t n = 0; n < devices; ++n) {
      for (std::size_t i = 0; i < dim; ++i) {
        next[i] += (p[n] / weight_sum) * local[n][i];
      }
    }
    w = next;
    record(w);
  }
  run.final_params = w;
  return run;
}

data::FederatedDataset quadratic_fed() {
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < 4; ++d) {
    const double center = 0.75 * static_cast<double>(d) - 1.0;
    fed.train.push_back(
        testing::quadratic_dataset(9 + 2 * d, 5, center, 0.5, 30 + d));
    fed.test.push_back(testing::quadratic_dataset(4, 5, center, 0.5, 40 + d));
  }
  return fed;
}

// Synthetic(α, β)-style shards of the 60-feature, 10-class task; at most
// 40 samples per shard keep every full-shard product below 32³ flops.
data::FederatedDataset logistic_fed() {
  data::SyntheticConfig cfg;
  cfg.num_devices = 4;
  cfg.dim = 60;
  cfg.num_classes = 10;
  cfg.min_samples = 12;
  cfg.max_samples = 40;
  cfg.seed = 9;
  return data::make_synthetic(cfg);
}

bool close(double got, double ref) {
  return std::abs(got - ref) <= 1e-12 * std::abs(ref);
}

// Runs Trainer::run and the reference for one model and estimator and
// compares every row and the final parameters.
void expect_trainer_matches_reference(bool logistic,
                                      opt::Estimator estimator) {
  const data::FederatedDataset fed =
      logistic ? logistic_fed() : quadratic_fed();
  const std::shared_ptr<const nn::Model> model =
      logistic ? std::shared_ptr<const nn::Model>(
                     nn::make_logistic_regression(60, 10))
               : std::make_shared<testing::QuadraticModel>(5);
  std::vector<double> w0(model->num_parameters());
  for (std::size_t i = 0; i < w0.size(); ++i) {
    w0[i] = 0.0625 * static_cast<double>(i % 9) - 0.25;
  }
  opt::LocalSolverOptions o;
  o.estimator = estimator;
  o.tau = 5;
  o.eta = logistic ? 0.05 : 0.1;
  o.mu = 0.1;
  o.batch_size = 8;
  TrainerOptions opts;
  opts.rounds = 6;
  opts.seed = 23;
  opts.eval_every = 1;
  opts.eval_initial = true;
  const Trainer trainer(model, fed, opts);
  const opt::LocalSolver solver(model, o);
  const TrainingTrace trace = trainer.run(solver, "ref", w0);
  const ReferenceRun want =
      reference_fedproxvr(*model, fed, o, opts.seed, opts.rounds, w0);

  EXPECT_EQ(trace.rounds.size(), opts.rounds + 1);
  for (std::size_t s = 0; s < trace.rounds.size(); ++s) {
    const RoundMetrics& row = trace.rounds[s];
    EXPECT_EQ(row.round, s);
    EXPECT_TRUE(close(row.train_loss, want.train_loss[s]))
        << "s=" << s << " engine " << row.train_loss << " reference "
        << want.train_loss[s];
    EXPECT_TRUE(close(row.test_accuracy, want.test_accuracy[s]))
        << "s=" << s << " engine " << row.test_accuracy << " reference "
        << want.test_accuracy[s];
  }
  EXPECT_EQ(trace.final_parameters.size(), want.final_params.size());
  for (std::size_t i = 0; i < want.final_params.size(); ++i) {
    EXPECT_TRUE(close(trace.final_parameters[i], want.final_params[i]))
        << "i=" << i << " engine " << trace.final_parameters[i]
        << " reference " << want.final_params[i];
  }
  // The run must move: a loss that never changes would not test the
  // rounds.
  EXPECT_NE(want.train_loss.front(), want.train_loss.back());
}

class FedProxVRReference
    : public ::testing::TestWithParam<opt::Estimator> {};

TEST_P(FedProxVRReference, QuadraticModel) {
  expect_trainer_matches_reference(/*logistic=*/false, GetParam());
}

TEST_P(FedProxVRReference, LogisticModel60Features) {
  expect_trainer_matches_reference(/*logistic=*/true, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Estimators, FedProxVRReference,
    ::testing::Values(opt::Estimator::kSgd, opt::Estimator::kSvrg,
                      opt::Estimator::kSarah, opt::Estimator::kFullGradient),
    [](const ::testing::TestParamInfo<opt::Estimator>& param_info) {
      return std::string(opt::estimator_name(param_info.param));
    });

}  // namespace
}  // namespace fedvr::fl
