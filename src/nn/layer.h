// Layer abstraction for the hand-rolled neural network library.
//
// Layers are *stateless with respect to parameters*: weights are slices of a
// flat parameter vector owned by the caller and passed into every call. This
// is what lets the variance-reduction estimators (SVRG eq. 8b, SARAH eq. 8a)
// evaluate gradients at the anchor point w^(0) and the current iterate
// w^(t) with the same model object, and lets device threads share one model
// while each owns its parameter vector.
//
// Data layout: a batch is (batch x in_size) row-major; images inside a
// sample are CHW.
//
// Layers hold no activations either: backward() is handed the forward input
// x and output y (nn::Sequential keeps both in its Workspace). An empty dx
// means "skip the input gradient"; Sequential passes one to its first layer.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace fedvr::nn {

/// What forward() saves for backward() besides x and y. One cache per layer
/// per (thread, batch); reused across iterations to avoid churn.
struct LayerCache {
  std::vector<std::size_t> indices;  // argmax positions for max-pool
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Flat input feature count per sample.
  [[nodiscard]] virtual std::size_t in_size() const = 0;
  /// Flat output feature count per sample.
  [[nodiscard]] virtual std::size_t out_size() const = 0;
  /// Number of parameters this layer owns in the flat vector.
  [[nodiscard]] virtual std::size_t param_count() const = 0;

  /// Writes an initial value for this layer's parameter slice.
  virtual void init_params(util::Rng& rng, std::span<double> w) const = 0;

  /// y = f(x; w) for a batch. `cache` may be nullptr for inference-only
  /// calls (backward will not be invoked).
  virtual void forward(std::span<const double> w, std::size_t batch,
                       std::span<const double> x, std::span<double> y,
                       LayerCache* cache) const = 0;

  /// Given x, y and `cache` of a training forward() of this batch and the
  /// upstream gradient dy, *accumulates* into dw (gradient w.r.t. this
  /// layer's parameters) and, unless dx is empty, writes dx (w.r.t. x).
  virtual void backward(std::span<const double> w, std::size_t batch,
                        std::span<const double> x, std::span<const double> y,
                        std::span<const double> dy, std::span<double> dx,
                        std::span<double> dw,
                        const LayerCache& cache) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace fedvr::nn
