// The device-local inner loop of Algorithm 1 (lines 3-10).
//
// Solves the surrogate problem (paper eq. 6)
//     min_w  J_n(w) = F_n(w) + (mu/2) ||w - anchor||^2
// by tau proximal steps  w_{t+1} = prox_{eta h_s}(w_t - eta v_t), where v_t
// is one of the estimators in estimator.h. With Estimator::kSgd and mu = 0
// this is exactly a FedAvg local epoch; with kSgd and mu > 0 it is FedProx;
// with kSvrg / kSarah it is FedProxVR; with kFullGradient it is the GD
// baseline. One implementation serves all algorithms the paper compares.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/model.h"
#include "opt/estimator.h"
#include "opt/workspace.h"
#include "util/rng.h"

namespace fedvr::opt {

/// Which iterate the device returns as w_n^{(s)} (Algorithm 1 line 10).
enum class IterateSelection {
  kLast,           // w^{(tau+1)} — what practical implementations use (§5)
  kUniformRandom,  // t' uniform on {0..tau} — what the analysis assumes
};

/// Step-size schedule. The paper argues a *fixed* step is the practical
/// choice (§4.2 footnote); the diminishing variant exists to test that
/// claim empirically (see bench/ablation_step_schedule).
enum class StepSchedule {
  kConstant,     // eta_t = eta
  kDiminishing,  // eta_t = eta / (1 + decay * t)
};

struct LocalSolverOptions {
  Estimator estimator = Estimator::kSvrg;
  std::size_t tau = 20;        // inner iterations (line 5)
  double eta = 0.1;            // step size; callers set eta = 1/(beta L)
  double mu = 0.1;             // proximal penalty of h_s (eq. 7)
  /// Mini-batch B (Alg. 1 samples 1; §5 uses B), drawn i.i.d. uniformly
  /// with replacement (line 6); a B that covers the shard is the full batch.
  std::size_t batch_size = 1;
  IterateSelection selection = IterateSelection::kLast;
  StepSchedule schedule = StepSchedule::kConstant;
  double schedule_decay = 0.1;  // only used by kDiminishing
  /// When true, the result carries ||grad J_n|| at the returned iterate and
  /// the measured local accuracy theta (eq. 11). Costs one full-batch
  /// gradient; off on the hot path.
  bool compute_diagnostics = false;

  /// Optional inner-loop observer for instrumentation (tests, estimator
  /// ablations): called after each estimator update with (t, v_t, w_t)
  /// for t = 1..tau. Leave empty on the hot path.
  std::function<void(std::size_t t, std::span<const double> v,
                     std::span<const double> w)>
      observer;
};

struct LocalSolverResult {
  std::vector<double> w;  // the local model w_n^{(s)} sent to the server

  /// ||grad F_n(anchor)||, from the anchor full-gradient the algorithm
  /// computes anyway (line 4). Denominator of the theta criterion (eq. 11).
  double anchor_grad_norm = 0.0;

  /// F_n at the anchor (free byproduct, used for traces).
  double anchor_loss = 0.0;

  // -- Only populated when compute_diagnostics is set: --
  /// ||grad J_n(w)|| at the returned iterate.
  double surrogate_grad_norm = 0.0;
  /// Measured theta = surrogate_grad_norm / anchor_grad_norm (eq. 11).
  double measured_theta = 0.0;

  /// Number of per-sample gradient evaluations performed — the computation
  /// cost the paper's d_cmp models.
  std::size_t sample_gradient_evals = 0;

  /// Inner iterations executed (always tau; the engine's measured d_cmp
  /// reads it).
  std::size_t iterations_run = 0;
};

class LocalSolver {
 public:
  LocalSolver(std::shared_ptr<const nn::Model> model,
              LocalSolverOptions options);

  [[nodiscard]] const LocalSolverOptions& options() const { return options_; }

  /// Runs the inner loop on `train` starting from `anchor` (the current
  /// global model w̄^{(s-1)}). `rng` drives mini-batch sampling and, for
  /// kUniformRandom, the returned-iterate choice.
  [[nodiscard]] LocalSolverResult solve(const data::Dataset& train,
                                        std::span<const double> anchor,
                                        util::Rng& rng) const;

  /// Workspace-based core with the identical floating-point and RNG
  /// sequence as solve() above (which wraps this with a throwaway
  /// workspace). Every buffer comes from `ws` and is reused across calls,
  /// so steady-state invocations allocate nothing. The chosen iterate is
  /// copied into `w_out`, which allocates only while w_out has less than
  /// the model's dimension in capacity, and `result.w` stays empty. `w_out`
  /// must not alias `anchor` or any workspace buffer.
  [[nodiscard]] LocalSolverResult solve(const data::Dataset& train,
                                        std::span<const double> anchor,
                                        util::Rng& rng, SolverWorkspace& ws,
                                        std::vector<double>& w_out) const;

 private:
  std::shared_ptr<const nn::Model> model_;
  LocalSolverOptions options_;
};

}  // namespace fedvr::opt
