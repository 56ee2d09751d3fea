// Tests for Sequential composition and the FeedForwardModel / Model API,
// including end-to-end gradient checks for the paper's two tasks and a
// learnability smoke test.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "data/procedural_images.h"
#include "data/synthetic.h"
#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/models.h"
#include "nn/sequential.h"
#include "tensor/vecops.h"
#include "testing/dense_relu_dense.h"
#include "testing/gradient_check.h"
#include "util/error.h"
#include "util/rng.h"

namespace fedvr::nn {
namespace {

using fedvr::util::Error;
using fedvr::util::Rng;

data::Dataset small_vector_dataset(std::size_t n, std::size_t dim,
                                   std::size_t classes, std::uint64_t seed) {
  data::Dataset ds(tensor::Shape({dim}), n, classes);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    auto x = ds.mutable_sample(i);
    for (auto& v : x) v = rng.normal();
    ds.set_label(i, static_cast<int>(rng.below(classes)));
  }
  return ds;
}

// ---------- Sequential ----------

TEST(Sequential, ValidatesLayerChaining) {
  std::vector<std::unique_ptr<Layer>> bad;
  bad.push_back(std::make_unique<DenseLayer>(4, 3));
  bad.push_back(std::make_unique<DenseLayer>(5, 2));  // expects 5, gets 3
  EXPECT_THROW(Sequential{std::move(bad)}, Error);
}

TEST(Sequential, ParamSlicesPartitionTheFlatVector) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<DenseLayer>(4, 3));
  layers.push_back(std::make_unique<ReluLayer>(3));
  layers.push_back(std::make_unique<DenseLayer>(3, 2));
  const Sequential net(std::move(layers));
  EXPECT_EQ(net.param_count(), 15u + 0u + 8u);
  EXPECT_EQ(net.param_slice(0), (std::pair<std::size_t, std::size_t>{0, 15}));
  EXPECT_EQ(net.param_slice(1), (std::pair<std::size_t, std::size_t>{15, 0}));
  EXPECT_EQ(net.param_slice(2), (std::pair<std::size_t, std::size_t>{15, 8}));
}

TEST(Sequential, BackwardWithoutTrainingForwardThrows) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<DenseLayer>(2, 2));
  const Sequential net(std::move(layers));
  std::vector<double> w(net.param_count(), 0.1);
  std::vector<double> x = {1, 2};
  Sequential::Workspace ws;
  (void)net.forward(w, 1, x, ws, /*training=*/false);
  std::vector<double> d_out = {1, 1};
  std::vector<double> dw(w.size());
  EXPECT_THROW(net.backward(w, 1, x, d_out, dw, ws), Error);
}

// ---------- LogisticRegression (paper's convex task) ----------

TEST(LogisticRegression, ParameterCount) {
  const auto model = make_logistic_regression(60, 10);
  EXPECT_EQ(model->num_parameters(), 60u * 10u + 10u);
}

TEST(LogisticRegression, GradientMatchesFiniteDifferences) {
  const auto model = make_logistic_regression(5, 3);
  const auto ds = small_vector_dataset(12, 5, 3, 7);
  Rng rng(1);
  auto w = model->initial_parameters(rng);
  const auto idx = all_indices(ds.size());
  std::vector<double> grad(w.size());
  const double loss = model->loss_and_gradient(w, ds, idx, grad);
  EXPECT_NEAR(loss, model->loss(w, ds, idx), 1e-12);
  testing::expect_gradient_matches(
      [&](std::span<const double> probe) {
        return model->loss(probe, ds, idx);
      },
      w, grad);
}

TEST(LogisticRegression, L2RegularizationEntersLossAndGradient) {
  const auto plain = make_logistic_regression(4, 2, 0.0);
  const auto reg = make_logistic_regression(4, 2, 0.5);
  const auto ds = small_vector_dataset(6, 4, 2, 3);
  Rng rng(2);
  auto w = plain->initial_parameters(rng);
  const auto idx = all_indices(ds.size());
  const double base = plain->loss(w, ds, idx);
  const double with_reg = reg->loss(w, ds, idx);
  EXPECT_NEAR(with_reg - base, 0.25 * tensor::nrm2_squared(w), 1e-12);

  std::vector<double> g0(w.size()), g1(w.size());
  (void)plain->loss_and_gradient(w, ds, idx, g0);
  (void)reg->loss_and_gradient(w, ds, idx, g1);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(g1[i] - g0[i], 0.5 * w[i], 1e-12);
  }
}

TEST(LogisticRegression, ChunkedGradientEqualsUnchunked) {
  // max_chunk smaller than the batch must not change the result.
  auto net_layers = [] {
    std::vector<std::unique_ptr<Layer>> ls;
    ls.push_back(std::make_unique<DenseLayer>(4, 3));
    return ls;
  };
  const FeedForwardModel small_chunks(
      std::make_shared<const Sequential>(net_layers()), 0.0, /*max_chunk=*/2);
  const FeedForwardModel one_chunk(
      std::make_shared<const Sequential>(net_layers()), 0.0,
      /*max_chunk=*/1000);
  const auto ds = small_vector_dataset(11, 4, 3, 9);
  Rng rng(3);
  auto w = small_chunks.initial_parameters(rng);
  const auto idx = all_indices(ds.size());
  std::vector<double> ga(w.size()), gb(w.size());
  const double la = small_chunks.loss_and_gradient(w, ds, idx, ga);
  const double lb = one_chunk.loss_and_gradient(w, ds, idx, gb);
  EXPECT_NEAR(la, lb, 1e-12);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_NEAR(ga[i], gb[i], 1e-12);
}

TEST(LogisticRegression, GradientDescentLearnsSeparableData) {
  // End-to-end learnability: full-batch GD on synthetic linear data must
  // drive training accuracy well above chance.
  data::SyntheticConfig cfg;
  cfg.num_devices = 1;
  cfg.dim = 10;
  cfg.num_classes = 4;
  const auto ds = data::make_synthetic_device(cfg, 0, 200);
  const auto model = make_logistic_regression(10, 4);
  Rng rng(5);
  auto w = model->initial_parameters(rng);
  std::vector<double> grad(w.size());
  const double initial_loss = model->full_loss(w, ds);
  for (int it = 0; it < 150; ++it) {
    (void)model->full_gradient(w, ds, grad);
    tensor::axpy(-0.5, grad, w);
  }
  EXPECT_LT(model->full_loss(w, ds), 0.6 * initial_loss);
  EXPECT_GT(model->accuracy(w, ds), 0.6);
}

// The only finite-difference check of Dense's input gradient flowing back
// through a ReLU into the first layer's weights.
TEST(DenseReluDense, GradientMatchesFiniteDifferencesWithL2) {
  const auto model = testing::dense_relu_dense(6, 5, 3, 0.01);
  const auto ds = small_vector_dataset(8, 6, 3, 7);
  Rng rng(8);
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

TEST(Model, PredictReturnsArgmaxClass) {
  const auto model = make_logistic_regression(2, 2);
  // Weights that route x[0] to class 0 and x[1] to class 1.
  std::vector<double> w = {5, 0, 0, 5, 0, 0};
  data::Dataset ds(tensor::Shape({2}), 2, 2);
  ds.mutable_sample(0)[0] = 1.0;  // class 0 wins
  ds.mutable_sample(1)[1] = 1.0;  // class 1 wins
  const auto idx = all_indices(2);
  std::vector<std::size_t> pred(2);
  model->predict(w, ds, idx, pred);
  EXPECT_EQ(pred[0], 0u);
  EXPECT_EQ(pred[1], 1u);
}

TEST(Model, AccuracyCountsCorrectFraction) {
  const auto model = make_logistic_regression(2, 2);
  std::vector<double> w = {5, 0, 0, 5, 0, 0};
  data::Dataset ds(tensor::Shape({2}), 2, 2);
  ds.mutable_sample(0)[0] = 1.0;
  ds.set_label(0, 0);  // correct
  ds.mutable_sample(1)[1] = 1.0;
  ds.set_label(1, 0);  // model predicts 1 -> wrong
  EXPECT_DOUBLE_EQ(model->accuracy(w, ds), 0.5);
}

TEST(Model, MismatchedFeatureDimThrows) {
  const auto model = make_logistic_regression(5, 3);
  const auto ds = small_vector_dataset(4, 7, 3, 1);
  Rng rng(1);
  auto w = model->initial_parameters(rng);
  const auto idx = all_indices(ds.size());
  EXPECT_THROW((void)model->loss(w, ds, idx), Error);
}

// ---------- Two-layer CNN (paper's non-convex task) ----------

TEST(TwoLayerCnn, PaperArchitectureParameterCount) {
  const auto model = make_two_layer_cnn();  // 28x28, 32/64 channels, 5x5
  // conv1: 32*25+32, conv2: 64*(32*25)+64, dense: (64*7*7)*10+10
  const std::size_t expected =
      (32 * 25 + 32) + (64 * 32 * 25 + 64) + (64 * 7 * 7 * 10 + 10);
  EXPECT_EQ(model->num_parameters(), expected);
}

TEST(TwoLayerCnn, RejectsIndivisibleInputSide) {
  CnnConfig cfg;
  cfg.side = 30;  // not divisible by 4
  EXPECT_THROW((void)make_two_layer_cnn(cfg), Error);
}

TEST(TwoLayerCnn, GradientMatchesFiniteDifferencesOnTinyInstance) {
  // Full FD over every parameter of the real CNN would be slow; shrink the
  // architecture (same code paths) and check every coordinate.
  CnnConfig cfg;
  cfg.side = 8;
  cfg.conv1_channels = 2;
  cfg.conv2_channels = 3;
  cfg.kernel = 3;
  cfg.num_classes = 3;
  const auto model = make_two_layer_cnn(cfg);
  data::Dataset ds(tensor::Shape({1, 8, 8}), 4, 3);
  Rng rng(11);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (auto& v : ds.mutable_sample(i)) v = rng.uniform();
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
      w, grad, 1e-6, 3e-5);
}

TEST(TwoLayerCnn, LearnsToSeparateTwoProceduralClasses) {
  data::ProceduralImageConfig pc;
  pc.side = 8;
  data::Dataset ds(tensor::Shape({1, 8, 8}), 40, 10);
  for (std::size_t i = 0; i < 40; ++i) {
    const int label = static_cast<int>(i % 2);  // classes 0 and 1 only
    Rng rng(100 + i);
    data::render_procedural_image(pc, label, rng, ds.mutable_sample(i));
    ds.set_label(i, label);
  }
  CnnConfig cfg;
  cfg.side = 8;
  cfg.conv1_channels = 4;
  cfg.conv2_channels = 8;
  cfg.kernel = 3;
  const auto model = make_two_layer_cnn(cfg);
  Rng rng(13);
  auto w = model->initial_parameters(rng);
  std::vector<double> grad(w.size());
  for (int it = 0; it < 60; ++it) {
    (void)model->full_gradient(w, ds, grad);
    tensor::axpy(-0.3, grad, w);
  }
  EXPECT_GT(model->accuracy(w, ds), 0.9);
}

}  // namespace
}  // namespace fedvr::nn
