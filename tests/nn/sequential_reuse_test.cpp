// Workspace-reuse, lean-backward and composite-network regression tests.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/models.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "opt/estimator.h"
#include "testing/dense_relu_dense.h"
#include "util/error.h"
#include "util/rng.h"

namespace fedvr::nn {
namespace {

using fedvr::util::Error;
using fedvr::util::Rng;

std::shared_ptr<const Sequential> small_net() {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<DenseLayer>(4, 6));
  layers.push_back(std::make_unique<ReluLayer>(6));
  layers.push_back(std::make_unique<DenseLayer>(6, 2));
  return std::make_shared<const Sequential>(std::move(layers));
}

TEST(SequentialWorkspace, ReuseAcrossDifferentBatchSizes) {
  // A workspace sized by a big batch must produce identical results when
  // reused for a smaller one (buffers shrink/regrow correctly).
  const auto net = small_net();
  Rng rng(3);
  std::vector<double> w(net->param_count());
  net->init_params(rng, w);
  std::vector<double> x_big(8 * 4), x_small(2 * 4);
  for (auto& v : x_big) v = rng.normal();
  for (std::size_t i = 0; i < x_small.size(); ++i) x_small[i] = x_big[i];

  Sequential::Workspace reused;
  (void)net->forward(w, 8, x_big, reused, /*training=*/true);
  const auto out_reused = net->forward(w, 2, x_small, reused, true);
  Sequential::Workspace fresh;
  const auto out_fresh = net->forward(w, 2, x_small, fresh, true);
  ASSERT_EQ(out_reused.size(), out_fresh.size());
  for (std::size_t i = 0; i < out_fresh.size(); ++i) {
    EXPECT_DOUBLE_EQ(out_reused[i], out_fresh[i]);
  }

  // Backward through the reused workspace matches the fresh one too.
  std::vector<double> d_out(2 * 2, 1.0);
  std::vector<double> dw_reused(w.size(), 0.0), dw_fresh(w.size(), 0.0);
  net->backward(w, 2, x_small, d_out, dw_reused, reused);
  net->backward(w, 2, x_small, d_out, dw_fresh, fresh);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_DOUBLE_EQ(dw_reused[i], dw_fresh[i]);
  }
}

TEST(SequentialWorkspace, InferenceThenTrainingOnSameWorkspace) {
  const auto net = small_net();
  Rng rng(5);
  std::vector<double> w(net->param_count());
  net->init_params(rng, w);
  std::vector<double> x(3 * 4);
  for (auto& v : x) v = rng.normal();
  Sequential::Workspace ws;
  (void)net->forward(w, 3, x, ws, /*training=*/false);
  (void)net->forward(w, 3, x, ws, /*training=*/true);
  std::vector<double> d_out(3 * 2, 0.5);
  std::vector<double> dw(w.size(), 0.0);
  EXPECT_NO_THROW(net->backward(w, 3, x, d_out, dw, ws));
}

TEST(SequentialWorkspace, BackwardAfterInferenceForwardThrows) {
  // The inference forward overwrote the activations backward() would read.
  const auto net = small_net();
  Rng rng(6);
  std::vector<double> w(net->param_count());
  net->init_params(rng, w);
  std::vector<double> x(3 * 4);
  for (auto& v : x) v = rng.normal();
  Sequential::Workspace ws;
  (void)net->forward(w, 3, x, ws, /*training=*/true);
  (void)net->forward(w, 3, x, ws, /*training=*/false);
  std::vector<double> d_out(3 * 2, 0.5);
  std::vector<double> dw(w.size(), 0.0);
  EXPECT_THROW(net->backward(w, 3, x, d_out, dw, ws), Error);
}

TEST(SequentialWorkspace, BackwardOfAnotherBatchThrows) {
  const auto net = small_net();
  Rng rng(8);
  std::vector<double> w(net->param_count());
  net->init_params(rng, w);
  std::vector<double> x(3 * 4, 0.25);
  const std::vector<double> other = x;
  Sequential::Workspace ws;
  (void)net->forward(w, 3, x, ws, /*training=*/true);
  std::vector<double> dw(w.size(), 0.0);
  std::vector<double> d_out(3 * 2, 0.5);
  EXPECT_THROW(net->backward(w, 3, other, d_out, dw, ws), Error);
  std::vector<double> d_out2(2 * 2, 0.5);
  EXPECT_THROW(net->backward(w, 2, std::span<const double>(x).first(8),
                             d_out2, dw, ws),
               Error);
  EXPECT_NO_THROW(net->backward(w, 3, x, d_out, dw, ws));
}

// dw from chaining Layer::forward/backward by hand with every dx computed,
// layer 0's included: the path Sequential::backward prunes.
std::vector<double> reference_dw(const Sequential& net,
                                 std::span<const double> w, std::size_t batch,
                                 std::span<const double> x,
                                 std::span<const double> d_out) {
  const std::size_t n = net.num_layers();
  std::vector<std::vector<double>> acts(n);
  std::vector<LayerCache> caches(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [offset, count] = net.param_slice(i);
    acts[i].resize(batch * net.layer(i).out_size());
    net.layer(i).forward(w.subspan(offset, count), batch,
                         i > 0 ? std::span<const double>(acts[i - 1]) : x,
                         acts[i], &caches[i]);
  }
  std::vector<double> dw(w.size(), 0.0);
  std::vector<double> upstream(d_out.begin(), d_out.end());
  for (std::size_t i = n; i-- > 0;) {
    const auto [offset, count] = net.param_slice(i);
    std::vector<double> dx(batch * net.layer(i).in_size());
    net.layer(i).backward(w.subspan(offset, count), batch,
                          i > 0 ? std::span<const double>(acts[i - 1]) : x,
                          acts[i], upstream, dx,
                          std::span<double>(dw).subspan(offset, count),
                          caches[i]);
    upstream = std::move(dx);
  }
  return dw;
}

void expect_lean_backward_bitwise(const Sequential& net, std::size_t batch,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(net.param_count());
  net.init_params(rng, w);
  std::vector<double> x(batch * net.in_size());
  for (auto& v : x) v = rng.normal();
  std::vector<double> d_out(batch * net.out_size());
  for (auto& v : d_out) v = rng.normal();

  Sequential::Workspace ws;
  (void)net.forward(w, batch, x, ws, /*training=*/true);
  std::vector<double> dw(w.size(), 0.0);
  net.backward(w, batch, x, d_out, dw, ws);
  const auto expected = reference_dw(net, w, batch, x, d_out);
  ASSERT_EQ(dw.size(), expected.size());
  for (std::size_t i = 0; i < dw.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dw[i]),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "dw[" << i << "] " << dw[i] << " vs " << expected[i];
  }
}

TEST(LeanBackward, DenseAloneMatchesFullChainBitwise) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<DenseLayer>(9, 4));
  expect_lean_backward_bitwise(Sequential(std::move(layers)), 6, 11);
}

TEST(LeanBackward, DenseReluDenseMatchesFullChainBitwise) {
  expect_lean_backward_bitwise(testing::dense_relu_dense(5, 7, 3)->net(), 6,
                               12);
}

TEST(LeanBackward, SmallCnnMatchesFullChainBitwise) {
  // conv -> relu -> pool -> conv -> relu -> pool -> dense; a batch of 5
  // leaves conv backward a partial gradient block.
  CnnConfig cfg;
  cfg.side = 8;
  cfg.conv1_channels = 3;
  cfg.conv2_channels = 5;
  cfg.kernel = 3;
  cfg.num_classes = 4;
  expect_lean_backward_bitwise(make_two_layer_cnn(cfg)->net(), 5, 15);
}

TEST(CnnComposite, ForwardShapesChainThroughAllLayerTypes) {
  // The full paper stack on a tiny input: conv -> relu -> pool -> conv ->
  // relu -> pool -> dense. Verifies inter-layer size bookkeeping.
  CnnConfig cfg;
  cfg.side = 8;
  cfg.conv1_channels = 3;
  cfg.conv2_channels = 5;
  cfg.kernel = 3;
  cfg.num_classes = 4;
  const auto model = make_two_layer_cnn(cfg);
  const auto& net = model->net();
  ASSERT_EQ(net.num_layers(), 7u);
  EXPECT_EQ(net.in_size(), 64u);
  EXPECT_EQ(net.layer(0).out_size(), 3u * 64u);   // conv1, same padding
  EXPECT_EQ(net.layer(2).out_size(), 3u * 16u);   // pool to 4x4
  EXPECT_EQ(net.layer(3).out_size(), 5u * 16u);   // conv2
  EXPECT_EQ(net.layer(5).out_size(), 5u * 4u);    // pool to 2x2
  EXPECT_EQ(net.out_size(), 4u);
}

TEST(Estimators, NamesAreStable) {
  using opt_e = fedvr::opt::Estimator;
  EXPECT_STREQ(fedvr::opt::estimator_name(opt_e::kSgd), "sgd");
  EXPECT_STREQ(fedvr::opt::estimator_name(opt_e::kSvrg), "svrg");
  EXPECT_STREQ(fedvr::opt::estimator_name(opt_e::kSarah), "sarah");
  EXPECT_STREQ(fedvr::opt::estimator_name(opt_e::kFullGradient), "gd");
}

}  // namespace
}  // namespace fedvr::nn
