// Dense -> ReLU -> Dense into softmax cross-entropy: the smallest
// non-convex feed-forward model, for tests that need a hidden layer between
// two dense layers.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/feedforward.h"
#include "nn/sequential.h"

namespace fedvr::testing {

[[nodiscard]] inline std::shared_ptr<nn::FeedForwardModel> dense_relu_dense(
    std::size_t input_dim, std::size_t hidden, std::size_t num_classes,
    double l2_reg = 0.0) {
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(std::make_unique<nn::DenseLayer>(input_dim, hidden));
  layers.push_back(std::make_unique<nn::ReluLayer>(hidden));
  layers.push_back(std::make_unique<nn::DenseLayer>(hidden, num_classes));
  return std::make_shared<nn::FeedForwardModel>(
      std::make_shared<const nn::Sequential>(std::move(layers)), l2_reg);
}

}  // namespace fedvr::testing
