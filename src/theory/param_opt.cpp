#include "theory/param_opt.h"

#include <cmath>
#include <limits>
#include <vector>

#include "util/error.h"

namespace fedvr::theory {

std::optional<double> training_time_objective(double beta, double mu,
                                              double gamma,
                                              const ProblemConstants& pc) {
  FEDVR_CHECK(gamma > 0.0);
  if (beta <= 3.0) return std::nullopt;
  if (mu_tilde(mu, pc.lambda) <= 0.0) return std::nullopt;
  const double theta_sq = theta_squared_sarah(beta, mu, pc);
  if (!(theta_sq > 0.0) || theta_sq >= 1.0) return std::nullopt;
  const double theta = std::sqrt(theta_sq);
  const double Theta = federated_factor(theta, mu, pc);
  if (Theta <= 0.0) return std::nullopt;
  const double tau = tau_upper_sarah(beta);
  return (1.0 + gamma * tau) / Theta;
}

namespace {

OptimalParams fill_params(double beta, double mu, double gamma,
                          const ProblemConstants& pc) {
  OptimalParams p;
  p.beta = beta;
  p.mu = mu;
  p.tau = tau_upper_sarah(beta);
  p.theta = std::sqrt(theta_squared_sarah(beta, mu, pc));
  p.Theta = federated_factor(p.theta, mu, pc);
  p.objective = (1.0 + gamma * p.tau) / p.Theta;
  return p;
}

// Log-spaced grid over [lo, hi].
std::vector<double> log_grid(double lo, double hi, std::size_t n) {
  std::vector<double> xs(n);
  const double llo = std::log(lo);
  const double lhi = std::log(hi);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = n == 1 ? 0.0
                            : static_cast<double>(i) /
                                  static_cast<double>(n - 1);
    xs[i] = std::exp(llo + t * (lhi - llo));
  }
  return xs;
}

}  // namespace

std::optional<OptimalParams> optimize_parameters(double gamma,
                                                 const ProblemConstants& pc,
                                                 const ParamOptOptions& opt) {
  FEDVR_CHECK(opt.grid >= 2);
  // Coarse scan. beta is shifted-log-spaced above 3; mu log-spaced above
  // lambda.
  double best = std::numeric_limits<double>::infinity();
  double best_beta = 0.0, best_mu = 0.0;
  const auto beta_offsets =
      log_grid(opt.beta_lo - 3.0, opt.beta_hi - 3.0, opt.grid);
  const double mu_lo = pc.lambda > 0.0 ? pc.lambda * (1.0 + 1e-6) : 1e-6;
  const auto mus = log_grid(mu_lo, std::max(mu_lo * 2.0,
                                            pc.lambda * opt.mu_hi_factor +
                                                1.0),
                            opt.grid);
  for (double boff : beta_offsets) {
    const double beta = 3.0 + boff;
    for (double mu : mus) {
      const auto obj = training_time_objective(beta, mu, gamma, pc);
      if (obj && *obj < best) {
        best = *obj;
        best_beta = beta;
        best_mu = mu;
      }
    }
  }
  if (!std::isfinite(best)) return std::nullopt;

  // Coordinate refinement: shrink a bracket around the incumbent with
  // golden-section-style probes on each axis in turn.
  double beta = best_beta, mu = best_mu;
  double beta_radius = 0.5 * (best_beta - 3.0);
  double mu_radius = 0.5 * (best_mu - pc.lambda);
  for (std::size_t round = 0; round < opt.refine_rounds; ++round) {
    for (int axis = 0; axis < 2; ++axis) {
      const double center = axis == 0 ? beta : mu;
      const double radius = axis == 0 ? beta_radius : mu_radius;
      for (double t : {-1.0, -0.5, 0.5, 1.0}) {
        const double candidate = center + t * radius;
        const double cand_beta = axis == 0 ? candidate : beta;
        const double cand_mu = axis == 0 ? mu : candidate;
        const auto obj =
            training_time_objective(cand_beta, cand_mu, gamma, pc);
        if (obj && *obj < best) {
          best = *obj;
          beta = cand_beta;
          mu = cand_mu;
        }
      }
    }
    beta_radius *= 0.7;
    mu_radius *= 0.7;
  }
  return fill_params(beta, mu, gamma, pc);
}

}  // namespace fedvr::theory
