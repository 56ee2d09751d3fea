// Algorithm 1's local solve (lines 3-10) written out with plain loops: a
// bit-level transcription of opt::LocalSolver's floating-point sequence,
// shared by the reference tests of the solver (opt/) and of the round
// engine (fl/).
//   * every gradient is a model call on `train` with the drawn indices;
//   * v^(t) is built element by element as a copy followed by axpy's
//     (SVRG: v = g_t; v += -1·g_ref; v += 1·v_0.  SARAH: v += 1·g_t;
//     v += -1·g_ref);
//   * w^(t+1) is a copy of w^(t), an axpy with -η_t, then the eq. 10 prox
//     (η μ / (1 + η μ))·anchor + (1 / (1 + η μ))·step.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/model.h"
#include "opt/local_solver.h"
#include "util/rng.h"

namespace fedvr::testing {

// One local solve from `anchor`, drawing its mini-batches from `rng` as
// the solver does.
inline opt::LocalSolverResult reference_solve(
    const nn::Model& model, const opt::LocalSolverOptions& o,
    const data::Dataset& train, const std::vector<double>& anchor,
    util::Rng& rng) {
  const std::size_t dim = model.num_parameters();
  const std::size_t n = train.size();
  std::vector<std::size_t> full_idx(n);
  std::iota(full_idx.begin(), full_idx.end(), 0);
  const auto eta_at = [&](std::size_t t) {
    return o.schedule == opt::StepSchedule::kConstant
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

  // Mini-batch draws with replacement; a batch covering the shard is
  // 0..n-1.
  const std::size_t batch_size = std::min(o.batch_size, n);
  const auto draw = [&] {
    std::vector<std::size_t> batch(batch_size);
    for (std::size_t k = 0; k < batch_size; ++k) {
      batch[k] = batch_size == n ? k : rng.below(n);
    }
    return batch;
  };

  opt::LocalSolverResult r;
  const std::size_t selected_t =
      o.selection == opt::IterateSelection::kUniformRandom
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
      case opt::Estimator::kSgd: {
        const auto batch = draw();
        (void)model.loss_and_gradient(w_curr, train, batch, v);
        r.sample_gradient_evals += batch.size();
        break;
      }
      case opt::Estimator::kSvrg: {
        const auto batch = draw();
        (void)model.loss_and_gradient(w_curr, train, batch, g);
        (void)model.loss_and_gradient(anchor, train, batch, g_ref);
        r.sample_gradient_evals += 2 * batch.size();
        for (std::size_t i = 0; i < dim; ++i) v[i] = g[i];
        for (std::size_t i = 0; i < dim; ++i) v[i] += -1.0 * g_ref[i];
        for (std::size_t i = 0; i < dim; ++i) v[i] += 1.0 * v0[i];
        break;
      }
      case opt::Estimator::kSarah: {
        const auto batch = draw();
        (void)model.loss_and_gradient(w_curr, train, batch, g);
        (void)model.loss_and_gradient(w_prev, train, batch, g_ref);
        r.sample_gradient_evals += 2 * batch.size();
        for (std::size_t i = 0; i < dim; ++i) v[i] += 1.0 * g[i];
        for (std::size_t i = 0; i < dim; ++i) v[i] += -1.0 * g_ref[i];
        break;
      }
      case opt::Estimator::kFullGradient: {
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
  r.w = (o.selection == opt::IterateSelection::kUniformRandom &&
         selected_t <= o.tau)
            ? snapshot
            : w_curr;
  return r;
}

}  // namespace fedvr::testing
