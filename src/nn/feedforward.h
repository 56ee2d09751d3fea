// Model implementation wrapping a Sequential network with a softmax
// cross-entropy head and optional L2 regularization.
#pragma once

#include <memory>

#include "nn/model.h"
#include "nn/sequential.h"

namespace fedvr::nn {

class FeedForwardModel final : public Model {
 public:
  /// `l2_reg` adds (l2/2)||w||^2 to the loss (and l2*w to the gradient) —
  /// used to make the convex task strongly convex when desired.
  /// `max_chunk` bounds the batch rows evaluated at once so full-batch
  /// gradient calls on large shards stay memory-bounded. A chunk whose
  /// indices are one ascending contiguous run is read in place from the
  /// dataset; any other chunk is gathered into a per-thread copy first.
  FeedForwardModel(std::shared_ptr<const Sequential> net, double l2_reg = 0.0,
                   std::size_t max_chunk = 64);

  [[nodiscard]] std::size_t num_parameters() const override {
    return net_->param_count();
  }
  [[nodiscard]] std::size_t num_classes() const { return net_->out_size(); }
  [[nodiscard]] const Sequential& net() const { return *net_; }
  [[nodiscard]] double l2_reg() const { return l2_reg_; }

  void initialize(util::Rng& rng, std::span<double> w) const override;

  [[nodiscard]] double loss(std::span<const double> w,
                            const data::Dataset& ds,
                            std::span<const std::size_t> indices)
      const override;

  double loss_and_gradient(std::span<const double> w, const data::Dataset& ds,
                           std::span<const std::size_t> indices,
                           std::span<double> grad) const override;

  void predict(std::span<const double> w, const data::Dataset& ds,
               std::span<const std::size_t> indices,
               std::span<std::size_t> out) const override;

 private:
  struct ChunkRows {
    std::span<const double> x;  // count x in_size() features
    std::span<const int> y;     // count labels
  };

  // The rows of one chunk of indices: the dataset's own storage when the
  // indices form one ascending contiguous run, else copies gathered into
  // `xbuf` and `ybuf`.
  [[nodiscard]] ChunkRows chunk_rows(const data::Dataset& ds,
                                     std::span<const std::size_t> indices,
                                     tensor::AlignedVector<double>& xbuf,
                                     std::vector<int>& ybuf) const;

  std::shared_ptr<const Sequential> net_;
  double l2_reg_;
  std::size_t max_chunk_;
};

}  // namespace fedvr::nn
