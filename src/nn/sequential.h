// Linear chain of layers sharing one flat parameter vector; its Workspace is
// the only holder of activations.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"
#include "tensor/aligned.h"

namespace fedvr::nn {

class Sequential {
 public:
  explicit Sequential(std::vector<std::unique_ptr<Layer>> layers);

  [[nodiscard]] std::size_t in_size() const;
  [[nodiscard]] std::size_t out_size() const;
  [[nodiscard]] std::size_t param_count() const { return total_params_; }
  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_[i]; }

  /// The [offset, offset+count) slice of the flat vector owned by layer i.
  [[nodiscard]] std::pair<std::size_t, std::size_t> param_slice(
      std::size_t i) const;

  void init_params(util::Rng& rng, std::span<double> w) const;

  /// Per-call workspace: activation buffers and per-layer caches. Reusable
  /// across calls from the same thread; cheap to construct. Activations and
  /// input gradients start on a cache line: the next layer's GEMM reads
  /// them as its X operand.
  struct Workspace {
    std::vector<tensor::AlignedVector<double>> activations;  // layer outputs
    std::vector<LayerCache> caches;
    // Layer input gradients, 1..n-1.
    std::vector<tensor::AlignedVector<double>> grads;
    std::span<const double> trained_input;  // x of a training forward()
  };

  /// Runs the batch through all layers; returns the final activation span
  /// (valid until the next call with the same workspace). `training` selects
  /// whether caches are populated for backward().
  [[nodiscard]] std::span<const double> forward(std::span<const double> w,
                                                std::size_t batch,
                                                std::span<const double> x,
                                                Workspace& ws,
                                                bool training) const;

  /// Backpropagates d_out (gradient w.r.t. the final activation) and
  /// accumulates parameter gradients into dw. Each layer is handed its
  /// forward input and output from `ws` (`x` for layer 0, which gets an
  /// empty dx), so the last forward() on `ws` must be a training one on this
  /// `x`; otherwise throws util::Error, in every build.
  void backward(std::span<const double> w, std::size_t batch,
                std::span<const double> x, std::span<const double> d_out,
                std::span<double> dw, Workspace& ws) const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<std::size_t> offsets_;  // param offset per layer
  std::size_t total_params_ = 0;
};

}  // namespace fedvr::nn
