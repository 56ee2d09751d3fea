// Max pooling over non-overlapping square windows (CHW layout).
#pragma once

#include "nn/layer.h"

namespace fedvr::nn {

class MaxPool2dLayer final : public Layer {
 public:
  /// Pools each (height x width) plane of `channels` planes with a
  /// `pool x pool` window and stride `pool`. Ragged edges are truncated
  /// (floor division), matching TensorFlow's 'VALID' pooling.
  MaxPool2dLayer(std::size_t channels, std::size_t height, std::size_t width,
                 std::size_t pool = 2);

  [[nodiscard]] std::size_t in_size() const override {
    return channels_ * height_ * width_;
  }
  [[nodiscard]] std::size_t out_size() const override {
    return channels_ * out_h() * out_w();
  }
  [[nodiscard]] std::size_t param_count() const override { return 0; }

  [[nodiscard]] std::size_t out_h() const { return height_ / pool_; }
  [[nodiscard]] std::size_t out_w() const { return width_ / pool_; }

  void init_params(util::Rng& rng, std::span<double> w) const override;

  void forward(std::span<const double> w, std::size_t batch,
               std::span<const double> x, std::span<double> y,
               LayerCache* cache) const override;

  void backward(std::span<const double> w, std::size_t batch,
                std::span<const double> x, std::span<const double> y,
                std::span<const double> dy, std::span<double> dx,
                std::span<double> dw, const LayerCache& cache) const override;

  [[nodiscard]] std::string name() const override { return "maxpool2d"; }

 private:
  std::size_t channels_;
  std::size_t height_;
  std::size_t width_;
  std::size_t pool_;
};

}  // namespace fedvr::nn
