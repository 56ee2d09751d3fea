// Tests for tanh/sigmoid activations and the MLP factory.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "data/synthetic.h"
#include "nn/activation.h"
#include "nn/models.h"
#include "tensor/vecops.h"
#include "testing/gradient_check.h"
#include "util/error.h"
#include "util/rng.h"

namespace fedvr::nn {
namespace {

using fedvr::util::Error;
using fedvr::util::Rng;

template <typename LayerT>
void check_elementwise_gradient(double tol = 1e-7) {
  const LayerT layer(5);
  Rng rng(3);
  std::vector<double> x(10);
  for (auto& v : x) v = rng.normal();
  std::vector<double> y(10);
  LayerCache cache;
  layer.forward({}, 2, x, y, &cache);
  std::vector<double> dy(10);
  for (auto& v : dy) v = rng.normal();
  std::vector<double> dx(10);
  std::vector<double> dw;
  layer.backward({}, 2, x, y, dy, dx, dw, cache);
  const double step = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = x[i];
    std::vector<double> up(10), down(10);
    x[i] = orig + step;
    layer.forward({}, 2, x, up, nullptr);
    x[i] = orig - step;
    layer.forward({}, 2, x, down, nullptr);
    x[i] = orig;
    const double fd = (up[i] - down[i]) / (2 * step) * dy[i];
    EXPECT_NEAR(dx[i], fd, tol) << "coordinate " << i;
  }
}

TEST(TanhLayer, MatchesStdTanh) {
  const TanhLayer layer(3);
  const std::vector<double> x = {-2.0, 0.0, 1.5};
  std::vector<double> y(3);
  layer.forward({}, 1, x, y, nullptr);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(y[static_cast<std::size_t>(i)],
                     std::tanh(x[static_cast<std::size_t>(i)]));
  }
}

TEST(TanhLayer, GradientMatchesFiniteDifferences) {
  check_elementwise_gradient<TanhLayer>();
}

TEST(SigmoidLayer, MatchesClosedForm) {
  const SigmoidLayer layer(3);
  const std::vector<double> x = {-1.0, 0.0, 2.0};
  std::vector<double> y(3);
  layer.forward({}, 1, x, y, nullptr);
  for (int i = 0; i < 3; ++i) {
    const double expected =
        1.0 / (1.0 + std::exp(-x[static_cast<std::size_t>(i)]));
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected, 1e-15);
  }
}

TEST(SigmoidLayer, StableInExtremeTails) {
  const SigmoidLayer layer(2);
  const std::vector<double> x = {-1000.0, 1000.0};
  std::vector<double> y(2);
  layer.forward({}, 1, x, y, nullptr);
  EXPECT_NEAR(y[0], 0.0, 1e-300);
  EXPECT_NEAR(y[1], 1.0, 1e-15);
  EXPECT_TRUE(std::isfinite(y[0]) && std::isfinite(y[1]));
}

TEST(SigmoidLayer, GradientMatchesFiniteDifferences) {
  check_elementwise_gradient<SigmoidLayer>();
}

TEST(Mlp, ParameterCountMatchesArchitecture) {
  MlpConfig cfg;
  cfg.input_dim = 20;
  cfg.hidden = {16, 8};
  cfg.num_classes = 4;
  const auto model = make_mlp(cfg);
  const std::size_t expected = (20 * 16 + 16) + (16 * 8 + 8) + (8 * 4 + 4);
  EXPECT_EQ(model->num_parameters(), expected);
}

TEST(Mlp, NoHiddenLayersIsLogisticRegression) {
  MlpConfig cfg;
  cfg.input_dim = 7;
  cfg.hidden = {};
  cfg.num_classes = 3;
  const auto mlp = make_mlp(cfg);
  const auto logreg = make_logistic_regression(7, 3);
  EXPECT_EQ(mlp->num_parameters(), logreg->num_parameters());
}

TEST(Mlp, RejectsUnknownActivation) {
  MlpConfig cfg;
  cfg.activation = "swish";
  EXPECT_THROW((void)make_mlp(cfg), Error);
}

TEST(Mlp, RejectsZeroWidthHiddenLayer) {
  MlpConfig cfg;
  cfg.hidden = {16, 0};
  EXPECT_THROW((void)make_mlp(cfg), Error);
}

class MlpGradient : public ::testing::TestWithParam<const char*> {};

TEST_P(MlpGradient, MatchesFiniteDifferencesForEveryActivation) {
  MlpConfig cfg;
  cfg.input_dim = 6;
  cfg.hidden = {5, 4};
  cfg.num_classes = 3;
  cfg.activation = GetParam();
  cfg.l2_reg = 0.01;
  const auto model = make_mlp(cfg);
  data::Dataset ds(tensor::Shape({6}), 8, 3);
  Rng rng(7);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (auto& v : ds.mutable_sample(i)) v = rng.normal();
    ds.set_label(i, static_cast<int>(rng.below(3)));
  }
  auto w = model->initial_parameters(rng);
  const auto idx = all_indices(ds.size());
  std::vector<double> grad(w.size());
  (void)model->loss_and_gradient(w, ds, idx, grad);
  testing::expect_gradient_matches(
      [&](std::span<const double> probe) {
        return model->loss(probe, ds, idx);
      },
      w, grad, 1e-6, 2e-5);
}

INSTANTIATE_TEST_SUITE_P(AllActivations, MlpGradient,
                         ::testing::Values("relu", "tanh", "sigmoid"));

TEST(Mlp, LearnsSyntheticTask) {
  data::SyntheticConfig cfg;
  cfg.num_devices = 1;
  cfg.dim = 12;
  cfg.num_classes = 4;
  const auto ds = data::make_synthetic_device(cfg, 0, 300);
  MlpConfig mlp_cfg;
  mlp_cfg.input_dim = 12;
  mlp_cfg.hidden = {24};
  mlp_cfg.num_classes = 4;
  mlp_cfg.activation = "tanh";
  const auto model = make_mlp(mlp_cfg);
  Rng rng(11);
  auto w = model->initial_parameters(rng);
  std::vector<double> grad(w.size());
  const double initial = model->full_loss(w, ds);
  for (int it = 0; it < 120; ++it) {
    (void)model->full_gradient(w, ds, grad);
    tensor::axpy(-0.5, grad, w);
  }
  EXPECT_LT(model->full_loss(w, ds), 0.5 * initial);
  EXPECT_GT(model->accuracy(w, ds), 0.6);
}

}  // namespace
}  // namespace fedvr::nn
