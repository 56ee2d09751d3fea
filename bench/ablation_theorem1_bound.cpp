// Ablation: empirical validation of Theorem 1.
//
// Runs FedProxVR(SARAH) on the Synthetic task with every constant in
// Theorem 1 *measured from the run itself*:
//   L      — Hessian power iteration on pooled data,
//   sigma^2 — gradient-divergence probe (Assumption 1, eq. 5),
//   theta  — the worst measured local accuracy across devices/rounds
//            (solver diagnostics, eq. 11),
//   Delta  — F̄(w0) minus the best loss seen (stand-in for F̄(w*)).
// It then checks the claim
//   (1/T) sum_s ||grad F̄(w̄^(s))||^2  <=  Delta / (Theta T)     (eq. 17)
// for several horizons T, printing measured vs bound. mu is chosen large
// enough to make Theta positive given the measured heterogeneity.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/experiment_util.h"
#include "theory/bounds.h"
#include "theory/heterogeneity.h"
#include "util/csv.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace fedvr;

  std::size_t devices = 10, rounds = 25, tau = 150, batch = 1;
  double beta = 8.0, lambda = 0.05;
  std::uint64_t seed = 1;
  util::Flags flags("ablation_theorem1_bound",
                    "empirical check of Theorem 1's convergence bound");
  flags.add("devices", &devices, "number of devices");
  flags.add("rounds", &rounds, "global rounds T");
  flags.add("tau", &tau, "local iterations (large tau -> small theta)");
  flags.add("batch", &batch, "mini-batch size");
  flags.add("beta", &beta, "step parameter");
  flags.add("lambda", &lambda,
            "assumed bounded-nonconvexity constant (convex task: small)");
  flags.add("seed", &seed, "master seed");
  flags.parse(argc, argv);

  data::SyntheticConfig cfg;
  cfg.num_devices = devices;
  cfg.alpha = 0.5;
  cfg.beta = 0.5;
  cfg.min_samples = 60;
  cfg.max_samples = 200;
  cfg.seed = seed;
  const auto fed = data::make_synthetic(cfg);
  const auto model =
      nn::make_logistic_regression(cfg.dim, cfg.num_classes);

  // Measure the problem constants.
  const double L = bench::estimate_task_smoothness(*model, fed, seed);
  util::Rng het_rng(seed + 1);
  const auto het = theory::estimate_heterogeneity(*model, fed, het_rng);
  std::printf("measured constants: L = %.3f, sigma_bar^2 = %.3f\n", L,
              het.sigma_bar_sq);

  // Pick mu from the theory: large enough that Theta > 0 even at the
  // theta ceiling theta < (2(1+sigma^2))^{-1/2}; scan upward.
  const theory::ProblemConstants pc{.L = L,
                                    .lambda = lambda,
                                    .sigma_bar_sq = het.sigma_bar_sq};
  double mu = 2.0 * L;
  while (theory::federated_factor(0.05, mu, pc) <= 0.0 && mu < 1e6 * L) {
    mu *= 1.5;
  }
  std::printf("chosen mu = %.3f (mu/L = %.1f)\n", mu, mu / L);

  // Run with diagnostics + gradient-norm evaluation.
  core::HyperParams hp;
  hp.beta = beta;
  hp.smoothness_L = L;
  hp.tau = tau;
  hp.mu = mu;
  hp.batch_size = batch;
  hp.diagnostics = true;
  fl::TrainerOptions run_cfg;
  run_cfg.rounds = rounds;
  run_cfg.seed = seed;
  run_cfg.eval_grad_norm = true;
  run_cfg.eval_initial = true;
  const auto trace = core::run_federated(model, fed,
                                         core::fedproxvr_sarah(hp), run_cfg);

  // Measured theta: worst round-mean across the run.
  double theta = 0.0;
  for (const auto& r : trace.rounds) {
    theta = std::max(theta, r.mean_local_theta);
  }
  const double theta_ceiling =
      1.0 / std::sqrt(2.0 * (1.0 + het.sigma_bar_sq));
  std::printf("measured theta = %.4f (Theorem-1 ceiling %.4f)\n", theta,
              theta_ceiling);
  if (theta >= theta_ceiling) {
    std::printf("theta exceeds the ceiling: Theorem 1 does not apply at "
                "these settings; raise tau.\n");
    return 0;
  }
  const double Theta = theory::federated_factor(theta, mu, pc);
  std::printf("federated factor Theta = %.6f\n\n", Theta);

  const double initial_loss = trace.rounds.front().train_loss;  // round 0
  const double best_loss = trace.min_train_loss();
  const double delta = initial_loss - best_loss;

  std::printf("%6s  %16s  %16s  %8s\n", "T", "mean ||grad||^2",
              "bound D/(Theta T)", "holds");
  const std::string dir = util::ensure_results_dir();
  util::CsvWriter csv(dir + "/ablation_theorem1.csv",
                      {"T", "mean_grad_norm_sq", "bound", "holds"});
  double running_sum = 0.0;
  std::size_t count = 0;
  bool all_hold = true;
  for (const auto& r : trace.rounds) {
    if (r.round == 0) continue;  // the sum starts at s = 1
    running_sum += r.grad_norm_sq;
    ++count;
    const double mean_gap = running_sum / static_cast<double>(count);
    const double bound =
        theory::global_rounds_needed(delta, Theta, 1.0) /
        static_cast<double>(count);  // Delta/(Theta T)
    const bool holds = mean_gap <= bound;
    all_hold = all_hold && holds;
    if (count % 5 == 0 || count == 1 ||
        r.round == trace.rounds.back().round) {
      std::printf("%6zu  %16.6f  %16.6f  %8s\n", count, mean_gap, bound,
                  holds ? "yes" : "NO");
    }
    csv.builder().add(count).add(mean_gap).add(bound)
        .add(holds ? "yes" : "no").commit();
  }
  std::printf("\nTheorem 1 bound %s across all horizons.\n",
              all_hold ? "holds" : "VIOLATED");
  std::printf("wrote %s/ablation_theorem1.csv\n", dir.c_str());
  return 0;
}
