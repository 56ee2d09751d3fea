// 2-D convolution layer (CHW layout), lowered to GEMM via im2col.
#pragma once

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace fedvr::nn {

class Conv2dLayer final : public Layer {
 public:
  /// `geometry` describes the input plane stack and kernel; `out_channels`
  /// is the number of filters. Parameter layout: W (out_channels x
  /// channels*kh*kw) row-major, then b (out_channels).
  Conv2dLayer(tensor::ConvGeometry geometry, std::size_t out_channels);

  [[nodiscard]] std::size_t in_size() const override {
    return geometry_.image_size();
  }
  [[nodiscard]] std::size_t out_size() const override {
    return out_channels_ * geometry_.out_pixels();
  }
  [[nodiscard]] std::size_t param_count() const override {
    return out_channels_ * geometry_.col_rows() + out_channels_;
  }

  [[nodiscard]] const tensor::ConvGeometry& geometry() const {
    return geometry_;
  }
  [[nodiscard]] std::size_t out_channels() const { return out_channels_; }

  void init_params(util::Rng& rng, std::span<double> w) const override;

  void forward(std::span<const double> w, std::size_t batch,
               std::span<const double> x, std::span<double> y,
               LayerCache* cache) const override;

  void backward(std::span<const double> w, std::size_t batch,
                std::span<const double> x, std::span<const double> y,
                std::span<const double> dy, std::span<double> dx,
                std::span<double> dw, const LayerCache& cache) const override;

  [[nodiscard]] std::string name() const override { return "conv2d"; }

 private:
  tensor::ConvGeometry geometry_;
  std::size_t out_channels_;
};

}  // namespace fedvr::nn
