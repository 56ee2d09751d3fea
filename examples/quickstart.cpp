// Quickstart: train FedProxVR (SARAH) on the heterogeneous Synthetic
// dataset and watch it converge.
//
//   ./build/examples/quickstart [--rounds 30] [--devices 20] [--tau 20]
//                               [--mu 0.1] [--beta 5] [--batch 8]
//                               [--trace trace.json]
//                               [--obs-metrics metrics.jsonl]
//
// Walks through the whole public API: generate federated data, build a
// model, estimate the smoothness constant, pick hyperparameters, run, and
// inspect the trace. Passing --trace or --obs-metrics turns on fedvr::obs
// and the round engine's phase clocks: the run exports a Chrome
// trace_event file (load it in chrome://tracing or https://ui.perfetto.dev)
// plus a metrics JSONL snapshot, and prints the measured per-round delays
// next to the analytic eq. 19 model.
#include <cstdio>

#include "core/fedproxvr.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "theory/smoothness.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace fedvr;

  std::size_t rounds = 30, devices = 20, tau = 20, batch = 8;
  double mu = 0.1, beta = 5.0;
  std::uint64_t seed = 1;
  std::string trace_path, metrics_path;
  util::Flags flags("quickstart", "FedProxVR(SARAH) on Synthetic(1,1)");
  flags.add("rounds", &rounds, "global rounds T");
  flags.add("devices", &devices, "number of devices N");
  flags.add("tau", &tau, "local iterations");
  flags.add("mu", &mu, "proximal penalty");
  flags.add("beta", &beta, "step parameter (eta = 1/(beta L))");
  flags.add("batch", &batch, "mini-batch size B");
  flags.add("seed", &seed, "master seed");
  flags.add("trace", &trace_path, "write a Chrome trace_event JSON here");
  flags.add("obs-metrics", &metrics_path, "write a metrics JSONL here");
  flags.parse(argc, argv);

  // 1. Federated data: power-law device sizes, per-device train/test split.
  data::SyntheticConfig data_cfg;
  data_cfg.num_devices = devices;
  data_cfg.min_samples = 40;
  data_cfg.max_samples = 400;
  data_cfg.seed = seed;
  const data::FederatedDataset fed = data::make_synthetic(data_cfg);
  std::printf("generated %zu devices, %zu training samples total\n",
              fed.num_devices(), fed.total_train_size());

  // 2. Model: multinomial logistic regression (the paper's convex task).
  const auto model =
      nn::make_logistic_regression(data_cfg.dim, data_cfg.num_classes);

  // 3. Estimate L from pooled data so eta = 1/(beta L) is well-scaled.
  data::Dataset pooled(fed.train[0].sample_shape(), 0, data_cfg.num_classes);
  for (const auto& d : fed.train) pooled.append(d);
  util::Rng rng(seed);
  const auto w_probe = model->initial_parameters(rng);
  const double L = theory::estimate_smoothness(*model, pooled, w_probe, rng);
  std::printf("estimated smoothness L = %.3f  =>  eta = %.5f\n", L,
              1.0 / (beta * L));

  // 4. Configure and run FedProxVR with the SARAH estimator.
  core::HyperParams hp;
  hp.beta = beta;
  hp.smoothness_L = L;
  hp.tau = tau;
  hp.mu = mu;
  hp.batch_size = batch;
  fl::TrainerOptions run_cfg;
  run_cfg.rounds = rounds;
  run_cfg.seed = seed;
  if (!trace_path.empty() || !metrics_path.empty()) {
    run_cfg.observability.enabled = true;
    run_cfg.observability.chrome_trace_path = trace_path;
    run_cfg.observability.metrics_jsonl_path = metrics_path;
  }
  const fl::TrainingTrace trace =
      core::run_federated(model, fed, core::fedproxvr_sarah(hp), run_cfg);

  // 5. Inspect results.
  std::printf("\n%6s  %12s  %10s\n", "round", "train_loss", "test_acc");
  for (const auto& r : trace.rounds) {
    if (r.round % 5 == 0 || r.round == 1 || r.round == rounds) {
      std::printf("%6zu  %12.5f  %9.2f%%\n", r.round, r.train_loss,
                  100.0 * r.test_accuracy);
    }
  }
  const auto [best_acc, best_round] = trace.best_accuracy();
  std::printf("\nbest test accuracy %.2f%% at round %zu\n", 100.0 * best_acc,
              best_round);

  // 6. If profiling was on, compare the measured per-round delays with the
  // analytic eq. 19 model the trainer charges to model_time.
  if (trace.measured_timing) {
    const fl::MeasuredTiming& m = *trace.measured_timing;
    const fl::TimingModel& a = run_cfg.timing;
    std::printf("\neq. 19 round time  T_round = d_com + d_cmp * tau\n");
    std::printf("  analytic: d_com = %.4g s, d_cmp = %.4g s  =>  %.4g s\n",
                a.d_com, a.d_cmp, a.round_time(tau));
    std::printf("  measured: d_com = %.4g s, d_cmp = %.4g s  =>  %.4g s\n",
                m.d_com, m.d_cmp, m.round_time(tau));
    if (!trace_path.empty()) {
      std::printf("Chrome trace written to %s (open in chrome://tracing)\n",
                  trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
    }
  }
  return 0;
}
