#include "theory/param_opt.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fedvr::theory {
namespace {

ProblemConstants fig1_constants(double sigma_sq = 0.2) {
  return ProblemConstants{.L = 1.0, .lambda = 0.5, .sigma_bar_sq = sigma_sq};
}

TEST(TrainingTimeObjective, InfeasiblePointsReturnNullopt) {
  const auto pc = fig1_constants();
  EXPECT_FALSE(training_time_objective(2.0, 5.0, 0.1, pc).has_value());
  EXPECT_FALSE(training_time_objective(10.0, 0.4, 0.1, pc).has_value());
  // mu barely above lambda makes theta^2 blow up (>1): infeasible.
  EXPECT_FALSE(
      training_time_objective(3.2, 0.5 + 1e-9, 0.1, pc).has_value());
}

TEST(TrainingTimeObjective, FeasiblePointMatchesManualFormula) {
  const auto pc = fig1_constants();
  const double beta = 200.0, mu = 50.0, gamma = 0.1;
  const auto obj = training_time_objective(beta, mu, gamma, pc);
  ASSERT_TRUE(obj.has_value());
  const double theta = std::sqrt(theta_squared_sarah(beta, mu, pc));
  const double Theta = federated_factor(theta, mu, pc);
  const double tau = tau_upper_sarah(beta);
  EXPECT_NEAR(*obj, (1.0 + gamma * tau) / Theta, 1e-12);
}

TEST(OptimizeParameters, FindsAFeasibleOptimum) {
  const auto pc = fig1_constants();
  const auto p = optimize_parameters(0.1, pc);
  ASSERT_TRUE(p.has_value());
  EXPECT_GT(p->beta, 3.0);
  EXPECT_GT(p->mu, pc.lambda);
  EXPECT_GT(p->Theta, 0.0);
  EXPECT_GT(p->theta, 0.0);
  EXPECT_LT(p->theta, 1.0);
  EXPECT_NEAR(p->tau, tau_upper_sarah(p->beta), 1e-9);
  // The reported objective is consistent.
  const auto obj = training_time_objective(p->beta, p->mu, 0.1, pc);
  ASSERT_TRUE(obj.has_value());
  EXPECT_NEAR(p->objective, *obj, 1e-9);
}

TEST(OptimizeParameters, OptimumBeatsRandomFeasibleProbes) {
  const auto pc = fig1_constants();
  const double gamma = 0.05;
  const auto p = optimize_parameters(gamma, pc);
  ASSERT_TRUE(p.has_value());
  for (double beta : {4.0, 8.0, 16.0, 40.0, 120.0}) {
    for (double mu : {0.7, 1.5, 4.0, 20.0, 80.0}) {
      const auto obj = training_time_objective(beta, mu, gamma, pc);
      if (obj) {
        EXPECT_LE(p->objective, *obj * (1.0 + 1e-9))
            << "beaten at beta=" << beta << " mu=" << mu;
      }
    }
  }
}

TEST(OptimizeParameters, Fig1Shape_SmallGammaPrefersManyLocalIterations) {
  // Fig. 1: when communication dominates (gamma small), optimal beta (and
  // so tau) is much larger than when computation dominates.
  const auto pc = fig1_constants();
  const auto cheap_compute = optimize_parameters(1e-4, pc);
  const auto costly_compute = optimize_parameters(1.0, pc);
  ASSERT_TRUE(cheap_compute && costly_compute);
  EXPECT_GT(cheap_compute->beta, costly_compute->beta);
  EXPECT_GT(cheap_compute->tau, 10.0 * costly_compute->tau);
}

TEST(OptimizeParameters, Fig1Shape_GammaGrowthRaisesMuAndTheta) {
  const auto pc = fig1_constants();
  const auto low = optimize_parameters(1e-3, pc);
  const auto high = optimize_parameters(0.5, pc);
  ASSERT_TRUE(low && high);
  EXPECT_GT(high->mu, low->mu);
  EXPECT_GT(high->theta, low->theta);
  // The objective (normalized training time) grows with gamma.
  EXPECT_LT(low->objective, high->objective);
}

TEST(OptimizeParameters, Fig1Shape_HeterogeneityRaisesMuAndBetaLowersTheta) {
  // "large sigma-bar^2 increases the optimal mu and beta, but decreases
  // theta and Theta" (§4.3).
  const double gamma = 0.01;
  const auto low = optimize_parameters(gamma, fig1_constants(0.2));
  const auto high = optimize_parameters(gamma, fig1_constants(0.8));
  ASSERT_TRUE(low && high);
  EXPECT_GT(high->mu, low->mu);
  EXPECT_GE(high->beta, 0.9 * low->beta);  // beta rises (allow grid noise)
  EXPECT_LT(high->theta, low->theta);
  EXPECT_LT(high->Theta, low->Theta);
}

}  // namespace
}  // namespace fedvr::theory
