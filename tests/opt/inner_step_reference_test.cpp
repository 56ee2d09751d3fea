// A bit-level reference for Algorithm 1's inner loop (lines 3-10) on a real
// model. The reference below is a plain-loop transcription of the solver's
// floating-point sequence:
//   * every gradient is a model call on `train` with the drawn indices;
//   * v^(t) is built element by element as a copy followed by axpy's
//     (SVRG: v = g_t; v += -1·g_ref; v += 1·v_0.  SARAH: v += 1·g_t;
//     v += -1·g_ref);
//   * w^(t+1) is a copy of w^(t), an axpy with -η_t, then the eq. 10 prox
//     (η μ / (1 + η μ))·anchor + (1 / (1 + η μ))·step.
// LocalSolver must return the same bits and the same result fields for
// every estimator, batch size, penalty, sampling scheme, step schedule and
// iterate selection swept here, and leave the RNG in the same state. Any
// fused or in-place rewrite of the solver's passes has to keep all of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "nn/models.h"
#include "opt/local_solver.h"
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

// The solver's sequence, written out with plain loops.
LocalSolverResult reference_solve(const nn::Model& model,
                                  const LocalSolverOptions& o,
                                  const data::Dataset& train,
                                  const std::vector<double>& anchor,
                                  Rng& rng) {
  const std::size_t dim = model.num_parameters();
  const std::size_t n = train.size();
  std::vector<std::size_t> full_idx(n);
  std::iota(full_idx.begin(), full_idx.end(), 0);
  const auto eta_at = [&](std::size_t t) {
    return o.schedule == StepSchedule::kConstant
               ? o.eta
               : o.eta / (1.0 + o.schedule_decay * static_cast<double>(t));
  };
  const auto prox_step = [&](const std::vector<double>& w,
                             const std::vector<double>& v, double eta,
                             std::vector<double>& out) {
    std::vector<double> step(dim);
    for (std::size_t i = 0; i < dim; ++i) step[i] = w[i];
    for (std::size_t i = 0; i < dim; ++i) step[i] += -eta * v[i];
    const double denom = 1.0 + eta * o.mu;
    const double anchor_coef = eta * o.mu / denom;
    const double x_coef = 1.0 / denom;
    for (std::size_t i = 0; i < dim; ++i) {
      out[i] = anchor_coef * anchor[i] + x_coef * step[i];
    }
  };

  // Mini-batch draws: with replacement, or through a permutation that is
  // reshuffled whenever it runs out; a batch covering the shard is 0..n-1.
  const std::size_t batch_size = std::min(o.batch_size, n);
  std::vector<std::size_t> permutation(n);
  std::iota(permutation.begin(), permutation.end(), 0);
  std::size_t cursor = n;
  const auto draw = [&] {
    std::vector<std::size_t> batch(batch_size);
    for (std::size_t k = 0; k < batch_size; ++k) {
      if (batch_size == n) {
        batch[k] = k;
      } else if (o.sampling == Sampling::kWithReplacement) {
        batch[k] = rng.below(n);
      } else {
        if (cursor >= n) {
          rng.shuffle(std::span<std::size_t>(permutation));
          cursor = 0;
        }
        batch[k] = permutation[cursor++];
      }
    }
    return batch;
  };

  LocalSolverResult r;
  const std::size_t selected_t =
      o.selection == IterateSelection::kUniformRandom
          ? static_cast<std::size_t>(rng.below(o.tau + 1))
          : o.tau + 1;
  std::vector<double> w_prev = anchor;
  std::vector<double> v(dim);
  r.anchor_loss = model.loss_and_gradient(w_prev, train, full_idx, v);
  r.sample_gradient_evals += n;
  double sq = 0.0;
  for (std::size_t i = 0; i < dim; ++i) sq += v[i] * v[i];
  r.anchor_grad_norm = std::sqrt(sq);
  std::vector<double> snapshot;
  if (selected_t == 0) snapshot = w_prev;
  std::vector<double> w_curr(dim);
  prox_step(w_prev, v, eta_at(0), w_curr);
  const std::vector<double> v0 = v;
  std::vector<double> g(dim), g_ref(dim);
  for (std::size_t t = 1; t <= o.tau; ++t) {
    if (t == selected_t) snapshot = w_curr;
    r.iterations_run = t;
    switch (o.estimator) {
      case Estimator::kSgd: {
        const auto batch = draw();
        (void)model.loss_and_gradient(w_curr, train, batch, v);
        r.sample_gradient_evals += batch.size();
        break;
      }
      case Estimator::kSvrg: {
        const auto batch = draw();
        (void)model.loss_and_gradient(w_curr, train, batch, g);
        (void)model.loss_and_gradient(anchor, train, batch, g_ref);
        r.sample_gradient_evals += 2 * batch.size();
        for (std::size_t i = 0; i < dim; ++i) v[i] = g[i];
        for (std::size_t i = 0; i < dim; ++i) v[i] += -1.0 * g_ref[i];
        for (std::size_t i = 0; i < dim; ++i) v[i] += 1.0 * v0[i];
        break;
      }
      case Estimator::kSarah: {
        const auto batch = draw();
        (void)model.loss_and_gradient(w_curr, train, batch, g);
        (void)model.loss_and_gradient(w_prev, train, batch, g_ref);
        r.sample_gradient_evals += 2 * batch.size();
        for (std::size_t i = 0; i < dim; ++i) v[i] += 1.0 * g[i];
        for (std::size_t i = 0; i < dim; ++i) v[i] += -1.0 * g_ref[i];
        break;
      }
      case Estimator::kFullGradient: {
        (void)model.loss_and_gradient(w_curr, train, full_idx, v);
        r.sample_gradient_evals += n;
        break;
      }
    }
    std::vector<double> next(dim);
    prox_step(w_curr, v, eta_at(t), next);
    w_prev = std::move(w_curr);
    w_curr = std::move(next);
  }
  r.w = (o.selection == IterateSelection::kUniformRandom &&
         selected_t <= o.tau)
            ? snapshot
            : w_curr;
  return r;
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
      for (const Sampling sampling :
           {Sampling::kWithReplacement, Sampling::kShuffledEpochs}) {
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
            o.sampling = sampling;
            o.schedule = schedule;
            o.schedule_decay = 0.3;
            o.selection = selection;
            const std::string label =
                "B=" + std::to_string(batch) + " mu=" + std::to_string(mu) +
                " shuffled=" +
                std::to_string(sampling == Sampling::kShuffledEpochs) +
                " diminishing=" +
                std::to_string(schedule == StepSchedule::kDiminishing) +
                " uniform=" +
                std::to_string(selection ==
                               IterateSelection::kUniformRandom);

            Rng solver_rng(1000 + cases);
            Rng reference_rng(1000 + cases);
            const LocalSolver solver(model, o);
            const auto got = solver.solve(train, anchor, solver_rng);
            const auto want =
                reference_solve(*model, o, train, anchor, reference_rng);
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
  }
  EXPECT_EQ(cases, 48u);
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
