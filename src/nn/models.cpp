#include "nn/models.h"

#include <vector>

#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"
#include "util/error.h"

namespace fedvr::nn {

std::shared_ptr<FeedForwardModel> make_logistic_regression(
    std::size_t input_dim, std::size_t num_classes, double l2_reg) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<DenseLayer>(input_dim, num_classes));
  auto net = std::make_shared<const Sequential>(std::move(layers));
  return std::make_shared<FeedForwardModel>(std::move(net), l2_reg);
}

std::shared_ptr<FeedForwardModel> make_two_layer_cnn(const CnnConfig& config) {
  FEDVR_CHECK_MSG(config.side % 4 == 0,
                  "CNN input side must be divisible by 4 (two 2x2 pools), got "
                      << config.side);
  const std::size_t pad = config.kernel / 2;  // 'same' padding for odd kernels
  std::vector<std::unique_ptr<Layer>> layers;

  tensor::ConvGeometry g1{.channels = config.in_channels,
                          .height = config.side,
                          .width = config.side,
                          .kernel_h = config.kernel,
                          .kernel_w = config.kernel,
                          .pad = pad,
                          .stride = 1};
  layers.push_back(std::make_unique<Conv2dLayer>(g1, config.conv1_channels));
  layers.push_back(std::make_unique<ReluLayer>(config.conv1_channels *
                                               config.side * config.side));
  layers.push_back(std::make_unique<MaxPool2dLayer>(
      config.conv1_channels, config.side, config.side, 2));

  const std::size_t half = config.side / 2;
  tensor::ConvGeometry g2{.channels = config.conv1_channels,
                          .height = half,
                          .width = half,
                          .kernel_h = config.kernel,
                          .kernel_w = config.kernel,
                          .pad = pad,
                          .stride = 1};
  layers.push_back(std::make_unique<Conv2dLayer>(g2, config.conv2_channels));
  layers.push_back(
      std::make_unique<ReluLayer>(config.conv2_channels * half * half));
  layers.push_back(
      std::make_unique<MaxPool2dLayer>(config.conv2_channels, half, half, 2));

  const std::size_t quarter = half / 2;
  layers.push_back(std::make_unique<DenseLayer>(
      config.conv2_channels * quarter * quarter, config.num_classes));

  auto net = std::make_shared<const Sequential>(std::move(layers));
  return std::make_shared<FeedForwardModel>(std::move(net), config.l2_reg);
}

}  // namespace fedvr::nn
