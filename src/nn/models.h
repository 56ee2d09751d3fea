// Factories for the two learning tasks evaluated in the paper (§5).
#pragma once

#include <memory>

#include "nn/feedforward.h"

namespace fedvr::nn {

/// Multinomial logistic regression (the paper's convex task): a single
/// dense layer into softmax cross-entropy, with optional L2 regularization.
[[nodiscard]] std::shared_ptr<FeedForwardModel> make_logistic_regression(
    std::size_t input_dim, std::size_t num_classes, double l2_reg = 0.0);

struct CnnConfig {
  std::size_t side = 28;        // square input image side
  std::size_t in_channels = 1;  // grayscale
  std::size_t conv1_channels = 32;  // paper: 32
  std::size_t conv2_channels = 64;  // paper: 64
  std::size_t kernel = 5;           // paper: 5x5 convs
  std::size_t num_classes = 10;
  double l2_reg = 0.0;
};

/// The paper's non-convex task: conv5x5(32) -> ReLU -> maxpool2 ->
/// conv5x5(64) -> ReLU -> maxpool2 -> dense -> softmax ("structure similar
/// to that in [McMahan et al.]"). 'Same' padding keeps plane sizes stable
/// before each pool. Parameterized so benches can shrink the input for
/// single-core wall-clock budgets without changing the architecture.
[[nodiscard]] std::shared_ptr<FeedForwardModel> make_two_layer_cnn(
    const CnnConfig& config = {});

}  // namespace fedvr::nn
