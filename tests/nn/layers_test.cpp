// Unit tests for individual layers: shapes, forward values, and
// finite-difference checks of both parameter and input gradients.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"
#include "tensor/vecops.h"
#include "util/error.h"
#include "util/rng.h"

namespace fedvr::nn {
namespace {

using fedvr::util::Error;
using fedvr::util::Rng;

// Scalar probe: s(w, x) = sum(forward(w, x)). Its gradient w.r.t. w is
// backward with dy = ones; checked against central differences.
double probe_sum(const Layer& layer, std::span<const double> w,
                 std::size_t batch, std::span<const double> x) {
  std::vector<double> y(batch * layer.out_size());
  layer.forward(w, batch, x, y, nullptr);
  double s = 0.0;
  for (double v : y) s += v;
  return s;
}

void check_layer_gradients(const Layer& layer, std::size_t batch,
                           Rng& rng, double tol = 1e-6) {
  std::vector<double> w(layer.param_count());
  layer.init_params(rng, w);
  std::vector<double> x(batch * layer.in_size());
  for (auto& v : x) v = rng.normal();

  // Analytic gradients via backward with dy = 1.
  std::vector<double> y(batch * layer.out_size());
  LayerCache cache;
  layer.forward(w, batch, x, y, &cache);
  std::vector<double> dy(y.size(), 1.0);
  std::vector<double> dx(x.size(), 0.0);
  std::vector<double> dw(w.size(), 0.0);
  layer.backward(w, batch, x, y, dy, dx, dw, cache);

  // An empty dx skips the input gradient and leaves dw bit-identical.
  std::vector<double> dw_lean(w.size(), 0.0);
  layer.backward(w, batch, x, y, dy, {}, dw_lean, cache);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dw_lean[i]),
              std::bit_cast<std::uint64_t>(dw[i]))
        << layer.name() << " dw[" << i << "] with an empty dx";
  }

  const double step = 1e-6;
  // Parameter gradient check.
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double orig = w[i];
    w[i] = orig + step;
    const double up = probe_sum(layer, w, batch, x);
    w[i] = orig - step;
    const double down = probe_sum(layer, w, batch, x);
    w[i] = orig;
    const double fd = (up - down) / (2 * step);
    EXPECT_NEAR(dw[i], fd, tol * std::max(1.0, std::abs(fd)))
        << layer.name() << " dw[" << i << "]";
  }
  // Input gradient check.
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double orig = x[i];
    x[i] = orig + step;
    const double up = probe_sum(layer, w, batch, x);
    x[i] = orig - step;
    const double down = probe_sum(layer, w, batch, x);
    x[i] = orig;
    const double fd = (up - down) / (2 * step);
    EXPECT_NEAR(dx[i], fd, tol * std::max(1.0, std::abs(fd)))
        << layer.name() << " dx[" << i << "]";
  }
}

// ---------- Dense ----------

TEST(DenseLayer, ShapesAndParamCount) {
  const DenseLayer layer(5, 3);
  EXPECT_EQ(layer.in_size(), 5u);
  EXPECT_EQ(layer.out_size(), 3u);
  EXPECT_EQ(layer.param_count(), 18u);  // 15 weights + 3 biases
}

TEST(DenseLayer, ForwardMatchesManualComputation) {
  const DenseLayer layer(2, 2);
  // W = [1 2; 3 4], b = [10, 20]; x = [1, 1] -> y = [13, 27]
  const std::vector<double> w = {1, 2, 3, 4, 10, 20};
  const std::vector<double> x = {1, 1};
  std::vector<double> y(2);
  layer.forward(w, 1, x, y, nullptr);
  EXPECT_DOUBLE_EQ(y[0], 13);
  EXPECT_DOUBLE_EQ(y[1], 27);
}

TEST(DenseLayer, GradientsMatchFiniteDifferences) {
  Rng rng(1);
  check_layer_gradients(DenseLayer(4, 3), 5, rng);
}

TEST(DenseLayer, InitZeroesBiasAndBoundsWeights) {
  const DenseLayer layer(100, 50);
  Rng rng(2);
  std::vector<double> w(layer.param_count());
  layer.init_params(rng, w);
  for (std::size_t i = 100 * 50; i < w.size(); ++i) EXPECT_EQ(w[i], 0.0);
  const double bound = std::sqrt(6.0 / 150.0);
  for (std::size_t i = 0; i < 100 * 50; ++i) {
    EXPECT_LE(std::abs(w[i]), bound);
  }
}

TEST(DenseLayer, BackwardAccumulatesIntoDw) {
  const DenseLayer layer(2, 1);
  const std::vector<double> w = {1, 1, 0};
  const std::vector<double> x = {1, 2};
  std::vector<double> y(1);
  LayerCache cache;
  layer.forward(w, 1, x, y, &cache);
  const std::vector<double> dy = {1};
  std::vector<double> dx(2);
  std::vector<double> dw = {100, 100, 100};  // pre-existing content
  layer.backward(w, 1, x, y, dy, dx, dw, cache);
  EXPECT_DOUBLE_EQ(dw[0], 101);  // += x[0]*dy
  EXPECT_DOUBLE_EQ(dw[1], 102);
  EXPECT_DOUBLE_EQ(dw[2], 101);  // += dy
}

// ---------- ReLU ----------

TEST(ReluLayer, ClampsNegatives) {
  const ReluLayer layer(4);
  const std::vector<double> x = {-2, -0.0, 0.5, 3};
  std::vector<double> y(4);
  layer.forward({}, 1, x, y, nullptr);
  EXPECT_DOUBLE_EQ(y[0], 0);
  EXPECT_DOUBLE_EQ(y[1], 0);
  EXPECT_DOUBLE_EQ(y[2], 0.5);
  EXPECT_DOUBLE_EQ(y[3], 3);
}

TEST(ReluLayer, BackwardMasksByForwardSign) {
  const ReluLayer layer(4);
  const std::vector<double> x = {-1, 2, 0, 3};
  std::vector<double> y(4);
  LayerCache cache;
  layer.forward({}, 1, x, y, &cache);
  const std::vector<double> dy = {10, 10, 10, 10};
  std::vector<double> dx(4);
  std::vector<double> dw;
  layer.backward({}, 1, x, y, dy, dx, dw, cache);
  EXPECT_DOUBLE_EQ(dx[0], 0);
  EXPECT_DOUBLE_EQ(dx[1], 10);
  EXPECT_DOUBLE_EQ(dx[2], 0);  // subgradient at 0 chosen as 0
  EXPECT_DOUBLE_EQ(dx[3], 10);
}

TEST(ReluLayer, HasNoParameters) {
  const ReluLayer layer(7);
  EXPECT_EQ(layer.param_count(), 0u);
  EXPECT_EQ(layer.in_size(), layer.out_size());
}

TEST(ReluLayer, GradientsMatchFiniteDifferences) {
  // Shift inputs away from the kink at 0 so FD is well-defined.
  const ReluLayer layer(6);
  Rng rng(3);
  std::vector<double> x(12);
  for (auto& v : x) {
    v = rng.normal();
    if (std::abs(v) < 0.05) v = 0.1;  // keep clear of the kink
  }
  std::vector<double> y(12);
  LayerCache cache;
  layer.forward({}, 2, x, y, &cache);
  std::vector<double> dy(12, 1.0), dx(12);
  std::vector<double> dw;
  layer.backward({}, 2, x, y, dy, dx, dw, cache);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_DOUBLE_EQ(dx[i], x[i] > 0 ? 1.0 : 0.0);
  }
}

TEST(ActivationLayers, GradientsMatchFiniteDifferences) {
  Rng rng(4);
  check_layer_gradients(ReluLayer(9), 3, rng);
}

// ---------- Conv2d ----------

TEST(Conv2dLayer, ShapesAndParamCount) {
  tensor::ConvGeometry g{.channels = 1,
                         .height = 8,
                         .width = 8,
                         .kernel_h = 5,
                         .kernel_w = 5,
                         .pad = 2,
                         .stride = 1};
  const Conv2dLayer layer(g, 4);
  EXPECT_EQ(layer.in_size(), 64u);
  EXPECT_EQ(layer.out_size(), 4u * 64u);
  EXPECT_EQ(layer.param_count(), 4u * 25u + 4u);
}

TEST(Conv2dLayer, IdentityKernelPassesThrough) {
  // 1x1 kernel with weight 1, bias 0 => output == input.
  tensor::ConvGeometry g{.channels = 1,
                         .height = 3,
                         .width = 3,
                         .kernel_h = 1,
                         .kernel_w = 1,
                         .pad = 0,
                         .stride = 1};
  const Conv2dLayer layer(g, 1);
  const std::vector<double> w = {1.0, 0.0};
  const std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<double> y(9);
  layer.forward(w, 1, x, y, nullptr);
  EXPECT_EQ(y, x);
}

TEST(Conv2dLayer, KnownBoxFilter) {
  // 2x2 all-ones kernel on a 2x2 image of ones, no pad: single output 4.
  tensor::ConvGeometry g{.channels = 1,
                         .height = 2,
                         .width = 2,
                         .kernel_h = 2,
                         .kernel_w = 2,
                         .pad = 0,
                         .stride = 1};
  const Conv2dLayer layer(g, 1);
  const std::vector<double> w = {1, 1, 1, 1, 0.5};  // bias 0.5
  const std::vector<double> x = {1, 1, 1, 1};
  std::vector<double> y(1);
  layer.forward(w, 1, x, y, nullptr);
  EXPECT_DOUBLE_EQ(y[0], 4.5);
}

TEST(Conv2dLayer, GradientsMatchFiniteDifferences) {
  tensor::ConvGeometry g{.channels = 2,
                         .height = 5,
                         .width = 4,
                         .kernel_h = 3,
                         .kernel_w = 3,
                         .pad = 1,
                         .stride = 1};
  Rng rng(5);
  check_layer_gradients(Conv2dLayer(g, 3), 2, rng, 1e-5);
}

TEST(Conv2dLayer, GradientsWithStrideMatchFiniteDifferences) {
  tensor::ConvGeometry g{.channels = 1,
                         .height = 6,
                         .width = 6,
                         .kernel_h = 3,
                         .kernel_w = 3,
                         .pad = 0,
                         .stride = 2};
  Rng rng(6);
  check_layer_gradients(Conv2dLayer(g, 2), 2, rng, 1e-5);
}

// ---------- MaxPool ----------

TEST(MaxPool2dLayer, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  check_layer_gradients(MaxPool2dLayer(2, 4, 6, 2), 3, rng);
}

TEST(MaxPool2dLayer, ShapesHalve) {
  const MaxPool2dLayer layer(3, 8, 8, 2);
  EXPECT_EQ(layer.in_size(), 3u * 64u);
  EXPECT_EQ(layer.out_size(), 3u * 16u);
  EXPECT_EQ(layer.param_count(), 0u);
}

TEST(MaxPool2dLayer, PicksWindowMaxima) {
  const MaxPool2dLayer layer(1, 2, 4, 2);
  const std::vector<double> x = {1, 5, 2, 0,
                                 3, 4, 8, 7};
  std::vector<double> y(2);
  layer.forward({}, 1, x, y, nullptr);
  EXPECT_DOUBLE_EQ(y[0], 5);
  EXPECT_DOUBLE_EQ(y[1], 8);
}

TEST(MaxPool2dLayer, BackwardRoutesToArgmax) {
  const MaxPool2dLayer layer(1, 2, 2, 2);
  const std::vector<double> x = {1, 9, 3, 2};
  std::vector<double> y(1);
  LayerCache cache;
  layer.forward({}, 1, x, y, &cache);
  const std::vector<double> dy = {5.0};
  std::vector<double> dx(4);
  std::vector<double> dw;
  layer.backward({}, 1, x, y, dy, dx, dw, cache);
  EXPECT_DOUBLE_EQ(dx[0], 0);
  EXPECT_DOUBLE_EQ(dx[1], 5);
  EXPECT_DOUBLE_EQ(dx[2], 0);
  EXPECT_DOUBLE_EQ(dx[3], 0);
}

TEST(MaxPool2dLayer, RaggedEdgeIsTruncated) {
  const MaxPool2dLayer layer(1, 5, 5, 2);
  EXPECT_EQ(layer.out_h(), 2u);
  EXPECT_EQ(layer.out_w(), 2u);
}

TEST(MaxPool2dLayer, TooSmallPlaneThrows) {
  EXPECT_THROW(MaxPool2dLayer(1, 1, 4, 2), Error);
}

}  // namespace
}  // namespace fedvr::nn
