// Integration tests: whole pipelines across modules.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>

#include "core/fedproxvr.h"
#include "data/image_datasets.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "testing/temp_dir.h"
#include "theory/bounds.h"
#include "theory/heterogeneity.h"
#include "theory/smoothness.h"

namespace fedvr {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::make_temp_dir("fedvr_pipeline_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

TEST_F(PipelineTest, ProceduralImageFederationTrainsAboveChance) {
  // data -> shard -> model -> train -> evaluate, end to end.
  data::ImageDatasetConfig cfg;
  cfg.side = 12;
  cfg.pool_size = 400;
  cfg.shard.num_devices = 8;
  cfg.shard.min_samples = 20;
  cfg.shard.max_samples = 80;
  cfg.data_dir = path("no_such_dir");  // force the procedural path
  const auto dataset = data::make_federated_images(cfg);
  EXPECT_FALSE(dataset.used_real_files);

  const auto model = nn::make_logistic_regression(
      dataset.fed.train.front().feature_dim(), 10);
  util::Rng rng(1);
  const auto w_probe = model->initial_parameters(rng);
  core::HyperParams hp;
  hp.beta = 5.0;
  hp.smoothness_L = theory::estimate_smoothness(
      *model, dataset.fed.train.front(), w_probe, rng);
  hp.tau = 15;
  hp.mu = 0.1;
  hp.batch_size = 8;
  fl::TrainerOptions run_cfg;
  run_cfg.rounds = 12;
  run_cfg.seed = 5;
  const auto trace = core::run_federated(model, dataset.fed,
                                         core::fedproxvr_svrg(hp), run_cfg);
  // 10 classes, 2 per device: sharded-test chance is ~10-ish%, a trained
  // linear model must clear 35%.
  EXPECT_GT(trace.best_accuracy().first, 0.35);
  EXPECT_LT(trace.back().train_loss, trace.rounds.front().train_loss);
}

TEST_F(PipelineTest, RealIdxFilesAreDetectedAndUsed) {
  // Fabricate a tiny-but-valid IDX pair in the expected location and check
  // the facade prefers it over the procedural generator.
  const auto data_dir = dir_ / "data";
  std::filesystem::create_directories(data_dir);
  auto write_be32 = [](std::ofstream& out, std::uint32_t v) {
    const unsigned char bytes[4] = {static_cast<unsigned char>(v >> 24),
                                    static_cast<unsigned char>(v >> 16),
                                    static_cast<unsigned char>(v >> 8),
                                    static_cast<unsigned char>(v)};
    out.write(reinterpret_cast<const char*>(bytes), 4);
  };
  const std::size_t n = 120, side = 6;
  {
    std::ofstream img((data_dir / "train-images-idx3-ubyte").string(),
                      std::ios::binary);
    write_be32(img, 0x803);
    write_be32(img, n);
    write_be32(img, side);
    write_be32(img, side);
    for (std::size_t i = 0; i < n * side * side; ++i) {
      img.put(static_cast<char>(i % 251));
    }
  }
  {
    std::ofstream lbl((data_dir / "train-labels-idx1-ubyte").string(),
                      std::ios::binary);
    write_be32(lbl, 0x801);
    write_be32(lbl, n);
    for (std::size_t i = 0; i < n; ++i) {
      lbl.put(static_cast<char>(i % 10));
    }
  }
  data::ImageDatasetConfig cfg;
  cfg.data_dir = data_dir.string();
  cfg.shard.num_devices = 4;
  cfg.shard.min_samples = 10;
  cfg.shard.max_samples = 30;
  const auto dataset = data::make_federated_images(cfg);
  EXPECT_TRUE(dataset.used_real_files);
  EXPECT_EQ(dataset.fed.train.front().sample_shape(),
            tensor::Shape({1, side, side}));
}

TEST_F(PipelineTest, FullRunsAreBitReproducible) {
  data::SyntheticConfig cfg;
  cfg.num_devices = 6;
  cfg.min_samples = 30;
  cfg.max_samples = 60;
  const auto fed = data::make_synthetic(cfg);
  const auto model = nn::make_logistic_regression(cfg.dim, cfg.num_classes);
  core::HyperParams hp;
  hp.beta = 5.0;
  hp.tau = 10;
  hp.mu = 0.1;
  hp.batch_size = 4;
  fl::TrainerOptions run_cfg;
  run_cfg.rounds = 8;
  run_cfg.seed = 77;
  const auto a = core::run_federated(model, fed, core::fedproxvr_sarah(hp),
                                     run_cfg);
  const auto b = core::run_federated(model, fed, core::fedproxvr_sarah(hp),
                                     run_cfg);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rounds[i].train_loss, b.rounds[i].train_loss);
    EXPECT_DOUBLE_EQ(a.rounds[i].test_accuracy, b.rounds[i].test_accuracy);
    EXPECT_EQ(a.rounds[i].comm_bytes, b.rounds[i].comm_bytes);
  }
}

TEST_F(PipelineTest, TraceCsvRoundTripsThroughDisk) {
  data::SyntheticConfig cfg;
  cfg.num_devices = 3;
  cfg.min_samples = 20;
  cfg.max_samples = 40;
  const auto fed = data::make_synthetic(cfg);
  const auto model = nn::make_logistic_regression(cfg.dim, cfg.num_classes);
  core::HyperParams hp;
  hp.tau = 5;
  hp.batch_size = 4;
  fl::TrainerOptions run_cfg;
  run_cfg.rounds = 3;
  const auto trace =
      core::run_federated(model, fed, core::fedavg(hp), run_cfg);
  const std::string csv_path = path("trace.csv");
  trace.write_csv(csv_path);
  std::ifstream in(csv_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1 + trace.rounds.size());  // header + one row per round
}

TEST_F(PipelineTest, FinalParametersMatchTheLastEval) {
  // final_parameters is the model the last trace row was evaluated at.
  data::SyntheticConfig cfg;
  cfg.num_devices = 4;
  cfg.min_samples = 30;
  cfg.max_samples = 50;
  const auto fed = data::make_synthetic(cfg);
  const auto model = nn::make_logistic_regression(cfg.dim, cfg.num_classes);
  core::HyperParams hp;
  hp.tau = 8;
  hp.batch_size = 4;
  fl::TrainerOptions run_cfg;
  run_cfg.rounds = 5;
  const auto trace =
      core::run_federated(model, fed, core::fedproxvr_svrg(hp), run_cfg);
  ASSERT_EQ(trace.final_parameters.size(), model->num_parameters());
  const auto pooled = fed.pooled_test();
  EXPECT_DOUBLE_EQ(model->accuracy(trace.final_parameters, pooled),
                   trace.back().test_accuracy);
}

TEST_F(PipelineTest, MeasuredConstantsFeedTheoryPipeline) {
  // data -> (L, sigma^2) estimation -> Theta -> rounds prediction: the
  // full theory pipeline must produce finite, positive outputs on real
  // federated data.
  data::SyntheticConfig cfg;
  cfg.num_devices = 6;
  cfg.min_samples = 40;
  cfg.max_samples = 80;
  const auto fed = data::make_synthetic(cfg);
  const auto model = nn::make_logistic_regression(cfg.dim, cfg.num_classes);
  util::Rng rng(11);
  const auto w0 = model->initial_parameters(rng);
  data::Dataset pooled(fed.train.front().sample_shape(), 0,
                       cfg.num_classes);
  for (const auto& d : fed.train) pooled.append(d);
  const double L = theory::estimate_smoothness(*model, pooled, w0, rng);
  const auto het = theory::estimate_heterogeneity(*model, fed, rng);
  EXPECT_GT(L, 0.0);
  EXPECT_GT(het.sigma_bar_sq, 0.0);
  const theory::ProblemConstants pc{.L = L,
                                    .lambda = 0.01,
                                    .sigma_bar_sq = het.sigma_bar_sq};
  // A sufficiently large mu and small theta must give a usable Theta.
  double mu = 10.0 * L;
  while (theory::federated_factor(0.01, mu, pc) <= 0.0 && mu < 1e8) {
    mu *= 2.0;
  }
  const double Theta = theory::federated_factor(0.01, mu, pc);
  EXPECT_GT(Theta, 0.0);
  const double T = theory::global_rounds_needed(5.0, Theta, 0.01);
  EXPECT_GT(T, 0.0);
  EXPECT_TRUE(std::isfinite(T));
}

}  // namespace
}  // namespace fedvr
