// Ablation: uplink sparsification vs accuracy and communication volume.
//
// The paper reduces communication by running more local iterations (large
// tau); compressing the uplink is the orthogonal lever (its ref. [13]).
// This bench runs FedProxVR(SVRG) with dense, top-k, and rand-k uplinks and
// reports final loss vs cumulative bytes — loss-per-byte is the figure of
// merit.
#include <cstdio>
#include <memory>
#include <vector>

#include "common/experiment_util.h"
#include "comm/compression.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace fedvr;

  std::size_t devices = 12, rounds = 25, tau = 30, batch = 4;
  double beta = 5.0, mu = 0.1;
  std::uint64_t seed = 1;
  util::Flags flags("ablation_compression",
                    "uplink sparsification: accuracy vs bytes");
  flags.add("devices", &devices, "number of devices");
  flags.add("rounds", &rounds, "global rounds");
  flags.add("tau", &tau, "local iterations");
  flags.add("batch", &batch, "mini-batch size");
  flags.add("beta", &beta, "step parameter");
  flags.add("mu", &mu, "proximal penalty");
  flags.add("seed", &seed, "master seed");
  flags.parse(argc, argv);

  data::SyntheticConfig cfg;
  cfg.num_devices = devices;
  cfg.min_samples = 40;
  cfg.max_samples = 200;
  cfg.seed = seed;
  const auto fed = data::make_synthetic(cfg);
  const auto model =
      nn::make_logistic_regression(cfg.dim, cfg.num_classes);
  const double L = bench::estimate_task_smoothness(*model, fed, seed);

  struct Variant {
    std::string name;
    std::shared_ptr<const comm::Compressor> compressor;  // null = dense
  };
  const std::vector<Variant> variants = {
      {"dense uplink", nullptr},
      {"top-k 20%", std::make_shared<comm::TopKCompressor>(0.2)},
      {"top-k 5%", std::make_shared<comm::TopKCompressor>(0.05)},
      {"rand-k 20%", std::make_shared<comm::RandKCompressor>(0.2)},
  };

  core::HyperParams hp;
  hp.beta = beta;
  hp.smoothness_L = L;
  hp.tau = tau;
  hp.mu = mu;
  hp.batch_size = batch;

  std::printf("%-14s  %12s  %12s  %14s\n", "uplink", "final_loss",
              "best_acc", "comm_megabytes");
  const std::string dir = util::ensure_results_dir();
  util::CsvWriter csv(dir + "/ablation_compression.csv",
                      {"uplink", "final_loss", "best_accuracy",
                       "comm_bytes"});
  std::vector<fl::TrainingTrace> traces;
  for (const auto& variant : variants) {
    auto spec = core::fedproxvr_svrg(hp);
    spec.name = variant.name;
    fl::TrainerOptions run_cfg;
    run_cfg.rounds = rounds;
    run_cfg.seed = seed;
    run_cfg.comm.compressor = variant.compressor;
    auto trace = core::run_federated(model, fed, spec, run_cfg);
    std::printf("%-14s  %12.5f  %11.2f%%  %14.3f\n", variant.name.c_str(),
                trace.back().train_loss,
                100.0 * trace.best_accuracy().first,
                static_cast<double>(trace.back().comm_bytes) / 1e6);
    csv.builder()
        .add(variant.name)
        .add(trace.back().train_loss)
        .add(trace.best_accuracy().first)
        .add(trace.back().comm_bytes)
        .commit();
    traces.push_back(std::move(trace));
  }
  std::printf("\n%s\n",
              bench::render_chart(
                  bench::loss_series(traces),
                  {.title = "loss under uplink sparsification",
                   .y_label = "training loss",
                   .x_label = "global round",
                   .log_y = true})
                  .c_str());
  std::printf("wrote %s/ablation_compression.csv\n", dir.c_str());
  return 0;
}
