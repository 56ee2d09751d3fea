// A bit-level reference for Algorithm 1's inner loop (lines 3-10) on a real
// model. The reference is the plain-loop transcription of the solver's
// floating-point sequence in testing/reference_solver.h. LocalSolver must
// return the same bits and the same result fields for every estimator,
// batch size, penalty, step schedule and iterate selection swept here, and
// leave the RNG in the same state. Any fused or in-place rewrite of the
// solver's passes has to keep all of it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/models.h"
#include "opt/local_solver.h"
#include "testing/reference_solver.h"
#include "util/rng.h"

namespace fedvr::opt {
namespace {

using util::Rng;

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

data::Dataset random_shard(std::size_t dim, std::size_t n,
                           std::uint64_t seed) {
  data::Dataset ds(tensor::Shape({dim}), n, 10);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    auto row = ds.mutable_sample(i);
    for (std::size_t j = 0; j < dim; ++j) {
      // Column 0 stays zero, so some gradient entries are exact zeros.
      row[j] = j == 0 ? 0.0 : rng.normal();
    }
    ds.set_label(i, static_cast<int>(rng.below(10)));
  }
  return ds;
}

struct Case {
  std::size_t dim;
  Estimator estimator;
};

class InnerStepReference : public ::testing::TestWithParam<Case> {};

TEST_P(InnerStepReference, SolverMatchesPlainLoopsBitForBit) {
  const Case c = GetParam();
  // 150 samples: the anchor gradient spans three 64-row chunks.
  const auto train = random_shard(c.dim, 150, 41 + c.dim);
  const auto model = nn::make_logistic_regression(c.dim, 10);
  std::vector<double> anchor(model->num_parameters());
  Rng init(5);
  for (double& x : anchor) x = 0.01 * init.normal();

  std::size_t cases = 0;
  for (const std::size_t batch : {1, 8, 32}) {
    for (const double mu : {0.0, 0.1}) {
      for (const StepSchedule schedule :
           {StepSchedule::kConstant, StepSchedule::kDiminishing}) {
        for (const IterateSelection selection :
             {IterateSelection::kLast, IterateSelection::kUniformRandom}) {
          LocalSolverOptions o;
          o.estimator = c.estimator;
          o.tau = 7;
          o.eta = 0.05;
          o.mu = mu;
          o.batch_size = batch;
          o.schedule = schedule;
          o.schedule_decay = 0.3;
          o.selection = selection;
          const std::string label =
              "B=" + std::to_string(batch) + " mu=" + std::to_string(mu) +
              " diminishing=" +
              std::to_string(schedule == StepSchedule::kDiminishing) +
              " uniform=" +
              std::to_string(selection == IterateSelection::kUniformRandom);

          Rng solver_rng(1000 + cases);
          Rng reference_rng(1000 + cases);
          const LocalSolver solver(model, o);
          const auto got = solver.solve(train, anchor, solver_rng);
          const auto want = testing::reference_solve(*model, o, train, anchor,
                                                     reference_rng);
          ++cases;

          ASSERT_EQ(got.w.size(), want.w.size()) << label;
          std::size_t mismatches = 0;
          for (std::size_t i = 0; i < got.w.size(); ++i) {
            mismatches += bits(got.w[i]) != bits(want.w[i]) ? 1 : 0;
          }
          EXPECT_EQ(mismatches, 0u) << label;
          EXPECT_EQ(bits(got.anchor_loss), bits(want.anchor_loss)) << label;
          EXPECT_EQ(bits(got.anchor_grad_norm), bits(want.anchor_grad_norm))
              << label;
          EXPECT_EQ(bits(got.surrogate_grad_norm),
                    bits(want.surrogate_grad_norm))
              << label;
          EXPECT_EQ(bits(got.measured_theta), bits(want.measured_theta))
              << label;
          EXPECT_EQ(got.sample_gradient_evals, want.sample_gradient_evals)
              << label;
          EXPECT_EQ(got.iterations_run, want.iterations_run) << label;
          EXPECT_EQ(solver_rng(), reference_rng()) << label;
        }
      }
    }
  }
  EXPECT_EQ(cases, 24u);
}

INSTANTIATE_TEST_SUITE_P(
    Estimators, InnerStepReference,
    ::testing::Values(Case{784, Estimator::kSvrg}, Case{784, Estimator::kSarah},
                      Case{784, Estimator::kSgd},
                      Case{784, Estimator::kFullGradient},
                      Case{60, Estimator::kSvrg}, Case{60, Estimator::kSarah},
                      Case{60, Estimator::kSgd},
                      Case{60, Estimator::kFullGradient}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::string(estimator_name(param_info.param.estimator)) + "_" +
             std::to_string(param_info.param.dim);
    });

}  // namespace
}  // namespace fedvr::opt
