#include "opt/local_solver.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "check/check.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/vecops.h"
#include "util/error.h"

namespace fedvr::opt {

LocalSolver::LocalSolver(std::shared_ptr<const nn::Model> model,
                         LocalSolverOptions options)
    : model_(std::move(model)), options_(options) {
  FEDVR_CHECK(model_ != nullptr);
  FEDVR_CHECK_MSG(std::isfinite(options_.eta) && options_.eta > 0.0,
                  "step size eta must be positive and finite");
  FEDVR_CHECK_MSG(std::isfinite(options_.mu) && options_.mu >= 0.0,
                  "penalty mu must be nonnegative and finite");
  FEDVR_CHECK(options_.batch_size >= 1);
  FEDVR_CHECK_MSG(std::isfinite(options_.schedule_decay) &&
                      options_.schedule_decay >= 0.0,
                  "schedule decay must be nonnegative and finite");
}

LocalSolverResult LocalSolver::solve(const data::Dataset& train,
                                     std::span<const double> anchor,
                                     util::Rng& rng) const {
  SolverWorkspace ws;
  std::vector<double> w;
  LocalSolverResult result = solve(train, anchor, rng, ws, w);
  result.w = std::move(w);
  return result;
}

LocalSolverResult LocalSolver::solve(const data::Dataset& train,
                                     std::span<const double> anchor,
                                     util::Rng& rng, SolverWorkspace& ws,
                                     std::vector<double>& w_out) const {
  const std::size_t dim = model_->num_parameters();
  FEDVR_CHECK_SHAPE(anchor.size(), dim);
  FEDVR_CHECK_MSG(!train.empty(), "device has no training data");
  FEDVR_CHECK_FINITE(anchor, "solver anchor w^(0)");
  const std::size_t n = train.size();
  // full_idx is always the identity permutation; skip the refill when the
  // workspace already holds it for this dataset size.
  std::vector<std::size_t>& full_idx = ws.full_idx;
  if (full_idx.size() != n) {
    full_idx.resize(n);
    std::iota(full_idx.begin(), full_idx.end(), 0);
  }

  OBS_SPAN("solver.solve");
  LocalSolverResult result;

  // Step size at inner iteration t (t = 0 is the first prox step).
  auto eta_at = [this](std::size_t t) {
    return options_.schedule == StepSchedule::kConstant
               ? options_.eta
               : options_.eta /
                     (1.0 + options_.schedule_decay * static_cast<double>(t));
  };

  // Uniform-random iterate selection: decide t' up front and snapshot when
  // the loop passes it — avoids storing all tau+1 iterates.
  const std::size_t selected_t =
      options_.selection == IterateSelection::kUniformRandom
          ? static_cast<std::size_t>(rng.below(options_.tau + 1))
          : options_.tau + 1;  // sentinel: never snapshot, keep last

  // Line 3-4: w^(0) = anchor, v^(0) = full local gradient at the anchor.
  SolverWorkspace::Vector& w_prev = ws.w_prev;
  w_prev.assign(anchor.begin(), anchor.end());
  SolverWorkspace::Vector& v = ws.v;
  v.resize(dim);  // loss_and_gradient overwrites
  const SolverWorkspace::Vector& anchor_w = ws.anchor_w;
  if (options_.estimator == Estimator::kSvrg) {
    // SVRG's reference point w^(0) stays fixed for all tau steps, so the
    // line-4 pass records the model's outputs there and every step replays
    // its mini-batch's rows instead of recomputing them.
    ws.anchor_w.assign(anchor.begin(), anchor.end());
    result.anchor_loss =
        model_->record_gradient(anchor_w, train, v, ws.anchor_record);
  } else {
    result.anchor_loss =
        model_->loss_and_gradient(w_prev, train, full_idx, v);
  }
  result.sample_gradient_evals += n;
  result.anchor_grad_norm = tensor::nrm2(v);
  FEDVR_OBS_COUNT("solver.anchor_gradients", 1);

  SolverWorkspace::Vector& snapshot = ws.snapshot;
  if (selected_t == 0) snapshot.assign(w_prev.begin(), w_prev.end());

  // First prox step: w^(1) = prox(w^(0) - eta_0 v^(0)).
  SolverWorkspace::Vector& w_curr = ws.w_curr;
  w_curr.resize(dim);
  tensor::prox_gradient_step(w_prev, v, anchor, eta_at(0), options_.mu,
                             w_curr);

  // Scratch for the estimator updates.
  SolverWorkspace::Vector& grad_curr = ws.grad_curr;
  grad_curr.resize(dim);
  SolverWorkspace::Vector& grad_ref = ws.grad_ref;
  grad_ref.resize(dim);
  if (options_.estimator == Estimator::kSvrg) {
    ws.v0.assign(v.begin(), v.end());  // SVRG keeps the anchor direction
  }
  const SolverWorkspace::Vector& v0 = ws.v0;
  // Line 6: B i.i.d. uniform draws with replacement. A batch that covers
  // the dataset degenerates to the deterministic full batch.
  std::vector<std::size_t>& batch = ws.batch;
  batch.resize(std::min(options_.batch_size, n));
  if (batch.size() == n) std::iota(batch.begin(), batch.end(), 0);
  auto draw_batch = [&] {
    if (batch.size() < n) {
      for (auto& idx : batch) idx = rng.below(n);
    }
  };
  // The two-point estimators evaluate one mini-batch twice: copy its rows
  // once, in draw order, and hand the model the contiguous run 0..B-1 of
  // the copy, which it reads in place.
  data::Dataset& batch_rows = ws.batch_rows;
  auto copy_batch_rows = [&] {
    batch_rows.assign_rows(train, batch);
    return std::span<const std::size_t>(full_idx).first(batch.size());
  };

  // Lines 5-9: tau inner iterations. Iteration t consumes w^(t) (w_curr)
  // and w^(t-1) (w_prev) and produces w^(t+1).
  for (std::size_t t = 1; t <= options_.tau; ++t) {
    if (t == selected_t) snapshot.assign(w_curr.begin(), w_curr.end());
    switch (options_.estimator) {
      case Estimator::kSgd: {
        draw_batch();
        (void)model_->loss_and_gradient(w_curr, train, batch, v);
        result.sample_gradient_evals += batch.size();
        break;
      }
      case Estimator::kSvrg: {
        // v_t = grad f_i(w_t) - grad f_i(w_0) + v_0   (eq. 8b)
        draw_batch();
        const auto rows = copy_batch_rows();
        (void)model_->loss_and_gradient(w_curr, batch_rows, rows, grad_curr);
        // The drawn indices name each copied row's recorded row.
        model_->replay_gradient(anchor_w, batch_rows, rows, ws.anchor_record,
                                batch, grad_ref);
        result.sample_gradient_evals += 2 * batch.size();
        tensor::diff_plus(grad_curr, grad_ref, v0, v);
        break;
      }
      case Estimator::kSarah: {
        // v_t = grad f_i(w_t) - grad f_i(w_{t-1}) + v_{t-1}   (eq. 8a)
        draw_batch();
        const auto rows = copy_batch_rows();
        (void)model_->loss_and_gradient(w_curr, batch_rows, rows, grad_curr);
        (void)model_->loss_and_gradient(w_prev, batch_rows, rows, grad_ref);
        result.sample_gradient_evals += 2 * batch.size();
        // v (currently v_{t-1}) += grad_curr - grad_ref.
        tensor::add_diff(grad_curr, grad_ref, v);
        break;
      }
      case Estimator::kFullGradient: {
        (void)model_->loss_and_gradient(w_curr, train, full_idx, v);
        result.sample_gradient_evals += n;
        break;
      }
    }
    if (options_.observer) options_.observer(t, v, w_curr);
    // A diverging FedProx run first shows up as NaN/Inf in the estimator
    // direction or the prox output; catch it at the iteration that made it.
    FEDVR_CHECK_FINITE(v, "estimator direction v^(t)");
    // Line 8: w^(t+1) = prox_{eta h_s}(w^(t) - eta v^(t)).
    w_prev.swap(w_curr);  // w_prev now holds w^(t)
    tensor::prox_gradient_step(w_prev, v, anchor, eta_at(t), options_.mu,
                               w_curr);
    FEDVR_CHECK_FINITE(w_curr, "local iterate w^(t+1)");
  }
  result.iterations_run = options_.tau;

  // Copy, don't swap: a swap would hand the workspace w_out's old buffer,
  // which is empty on a slot's first solve, and the next solve on this
  // thread would grow w_curr again.
  const SolverWorkspace::Vector& chosen =
      (options_.selection == IterateSelection::kUniformRandom &&
       selected_t <= options_.tau)
          ? snapshot
          : w_curr;
  w_out.assign(chosen.begin(), chosen.end());

  if (options_.compute_diagnostics) {
    // grad J_n(w) = grad F_n(w) + mu (w - anchor)  (paper eq. 68).
    SolverWorkspace::Vector& grad_j = ws.grad_j;
    grad_j.resize(dim);
    (void)model_->loss_and_gradient(w_out, train, full_idx, grad_j);
    for (std::size_t i = 0; i < dim; ++i) {
      grad_j[i] += options_.mu * (w_out[i] - anchor[i]);
    }
    result.surrogate_grad_norm = tensor::nrm2(grad_j);
    result.measured_theta =
        result.anchor_grad_norm > 0.0
            ? result.surrogate_grad_norm / result.anchor_grad_norm
            : 0.0;
  }
  FEDVR_OBS_COUNT("solver.inner_iterations", result.iterations_run);
  FEDVR_OBS_COUNT("solver.sample_grad_evals", result.sample_gradient_evals);
  return result;
}

}  // namespace fedvr::opt
