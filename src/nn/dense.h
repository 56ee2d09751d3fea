// Fully connected layer: y = x W^T + b.
#pragma once

#include "nn/layer.h"

namespace fedvr::nn {

class DenseLayer final : public Layer {
 public:
  /// Parameter layout inside the flat slice: W (out x in) row-major,
  /// followed by b (out).
  DenseLayer(std::size_t in, std::size_t out);

  [[nodiscard]] std::size_t in_size() const override { return in_; }
  [[nodiscard]] std::size_t out_size() const override { return out_; }
  [[nodiscard]] std::size_t param_count() const override {
    return out_ * in_ + out_;
  }

  void init_params(util::Rng& rng, std::span<double> w) const override;

  void forward(std::span<const double> w, std::size_t batch,
               std::span<const double> x, std::span<double> y,
               LayerCache* cache) const override;

  void backward(std::span<const double> w, std::size_t batch,
                std::span<const double> x, std::span<const double> y,
                std::span<const double> dy, std::span<double> dx,
                std::span<double> dw, const LayerCache& cache) const override;

  /// backward()'s parameter half: dW += dy^T x and db += column sums of dy.
  /// It reads neither the output nor a cache, so it needs no forward pass
  /// of this batch.
  void param_gradient(std::size_t batch, std::span<const double> x,
                      std::span<const double> dy, std::span<double> dw) const;

  [[nodiscard]] std::string name() const override { return "dense"; }

 private:
  std::size_t in_;
  std::size_t out_;
};

}  // namespace fedvr::nn
