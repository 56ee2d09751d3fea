// Training-time minimization (§4.3, problems 20-24).
//
// Minimize over (beta, mu):
//     f(beta, mu) = (1/Theta) * (1 + gamma * (5 beta^2 - 4 beta)/8)
// subject to beta > 3 and Theta > 0, where theta is eliminated via eq. (22)
// (tau is run at its SARAH upper bound). The problem is non-convex but
// 2-dimensional, so a dense log-grid scan followed by coordinate refinement
// finds the global optimum — exactly the "numerical methods" the paper uses
// for Fig. 1.
#pragma once

#include <cstddef>
#include <optional>

#include "theory/bounds.h"

namespace fedvr::theory {

struct OptimalParams {
  double beta = 0.0;
  double mu = 0.0;
  double tau = 0.0;       // (5 beta^2 - 4 beta)/8, eq. (16)
  double theta = 0.0;     // from eq. (22)
  double Theta = 0.0;     // federated factor at the optimum
  double objective = 0.0; // (1/Theta)(1 + gamma tau)
};

struct ParamOptOptions {
  double beta_lo = 3.0 + 1e-6;
  double beta_hi = 400.0;
  double mu_hi_factor = 400.0;  // mu scanned in (lambda, lambda*factor]
  std::size_t grid = 160;       // points per axis in the coarse scan
  std::size_t refine_rounds = 40;
};

/// Objective value at (beta, mu), or nullopt when the point is infeasible
/// (beta <= 3, mu <= lambda, theta not in (0,1), or Theta <= 0).
[[nodiscard]] std::optional<double> training_time_objective(
    double beta, double mu, double gamma, const ProblemConstants& pc);

/// Global numerical optimum of problem (23)-(24) for a given gamma.
/// Returns nullopt only if no feasible point exists in the search box.
[[nodiscard]] std::optional<OptimalParams> optimize_parameters(
    double gamma, const ProblemConstants& pc, const ParamOptOptions& opt = {});

}  // namespace fedvr::theory
