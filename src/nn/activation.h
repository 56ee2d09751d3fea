// Parameter-free activation layers.
#pragma once

#include <cmath>

#include "nn/layer.h"
#include "util/error.h"

namespace fedvr::nn {

/// An elementwise activation y = Op::value(x). Op::backprop(dy, y) is dx
/// as a function of the forward *output* y, which backward() is handed:
/// tanh, sigmoid and ReLU all need nothing else.
template <typename Op>
class ElementwiseLayer final : public Layer {
 public:
  explicit ElementwiseLayer(std::size_t size) : size_(size) {
    FEDVR_CHECK(size > 0);
  }

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
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = Op::value(x[i]);
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
      dx[i] = Op::backprop(dy[i], y[i]);
    }
  }

  [[nodiscard]] std::string name() const override { return Op::kName; }

 private:
  std::size_t size_;
};

struct TanhOp {
  static constexpr const char* kName = "tanh";
  static double value(double x) { return std::tanh(x); }
  static double backprop(double dy, double y) { return dy * (1.0 - y * y); }
};

struct SigmoidOp {
  static constexpr const char* kName = "sigmoid";
  static double value(double x) {
    // Stable in both tails.
    if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
    const double e = std::exp(x);
    return e / (1.0 + e);
  }
  static double backprop(double dy, double y) { return dy * (y * (1.0 - y)); }
};

/// y > 0 exactly where x > 0, so the output carries ReLU's derivative too.
struct ReluOp {
  static constexpr const char* kName = "relu";
  static double value(double x) { return x > 0.0 ? x : 0.0; }
  static double backprop(double dy, double y) { return y > 0.0 ? dy : 0.0; }
};

using TanhLayer = ElementwiseLayer<TanhOp>;
using SigmoidLayer = ElementwiseLayer<SigmoidOp>;
using ReluLayer = ElementwiseLayer<ReluOp>;

}  // namespace fedvr::nn
