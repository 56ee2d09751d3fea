// The parameter-free ReLU activation layer.
#pragma once

#include "nn/layer.h"
#include "util/error.h"

namespace fedvr::nn {

/// y = max(x, 0), elementwise. backward() needs only the forward *output*
/// y: y > 0 exactly where x > 0, so y carries ReLU's derivative too.
class ReluLayer final : public Layer {
 public:
  explicit ReluLayer(std::size_t size) : size_(size) { FEDVR_CHECK(size > 0); }

  [[nodiscard]] std::size_t in_size() const override { return size_; }
  [[nodiscard]] std::size_t out_size() const override { return size_; }
  [[nodiscard]] std::size_t param_count() const override { return 0; }
  void init_params(util::Rng& /*rng*/, std::span<double> w) const override {
    FEDVR_CHECK(w.empty());
  }

  void forward(std::span<const double> w, std::size_t batch,
               std::span<const double> x, std::span<double> y,
               LayerCache* /*cache*/) const override {
    FEDVR_CHECK(w.empty());
    FEDVR_CHECK(x.size() == batch * size_ && y.size() == batch * size_);
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
  }

  void backward(std::span<const double> w, std::size_t batch,
                std::span<const double> /*x*/, std::span<const double> y,
                std::span<const double> dy, std::span<double> dx,
                std::span<double> dw,
                const LayerCache& /*cache*/) const override {
    FEDVR_CHECK(w.empty() && dw.empty());
    FEDVR_CHECK(y.size() == batch * size_ && dy.size() == batch * size_);
    FEDVR_CHECK(dx.empty() || dx.size() == batch * size_);
    for (std::size_t i = 0; i < dx.size(); ++i) {
      dx[i] = y[i] > 0.0 ? dy[i] : 0.0;
    }
  }

  [[nodiscard]] std::string name() const override { return "relu"; }

 private:
  std::size_t size_;
};

}  // namespace fedvr::nn
