// Model implementation wrapping a Sequential network with a softmax
// cross-entropy head and optional L2 regularization.
#pragma once

#include <memory>

#include "nn/model.h"
#include "nn/sequential.h"

namespace fedvr::nn {

class DenseLayer;

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

  /// Keeps each sample's softmax probabilities when replays() holds;
  /// otherwise the base class's full gradient, keeping nothing.
  double record_gradient(std::span<const double> w, const data::Dataset& ds,
                         std::span<double> grad,
                         GradientRecord& record) const override;

  /// When replays() holds, skips the forward GEMM and the exponentials:
  /// the recorded probabilities go through the loss's adjustment and the
  /// Dense layer's parameter gradient.
  void replay_gradient(std::span<const double> w, const data::Dataset& ds,
                       std::span<const std::size_t> indices,
                       const GradientRecord& record,
                       std::span<const std::size_t> record_rows,
                       std::span<double> grad) const override;

  /// True when the network is one Dense layer (multinomial logistic
  /// regression) whose forward gives a sample the same bits in a chunk of
  /// up to max_chunk rows as in any smaller batch, so the probabilities a
  /// full-batch pass records are the ones a mini-batch pass would compute.
  [[nodiscard]] bool replays() const { return replay_layer() != nullptr; }

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

  // The mean gradient over ds[indices] into `grad`, chunk by chunk:
  // `chunk_step(start, rows, d_chunk, dw)` backpropagates chunk
  // [start, start + rows count) into the zeroed dw and returns the chunk's
  // mean loss. Adds the L2 gradient, checks the result is finite and
  // returns the mean data loss (without the L2 term).
  template <typename ChunkStep>
  double gradient_chunks(std::span<const double> w, const data::Dataset& ds,
                         std::span<const std::size_t> indices,
                         std::span<double> grad,
                         const ChunkStep& chunk_step) const;

  // The network's one Dense layer when replays() holds, else nullptr.
  [[nodiscard]] const DenseLayer* replay_layer() const;

  // The replaying chunk step's backward: d_chunk (the chunk's
  // probabilities) through the loss's adjustment into Dense's dW and db.
  void replay_chunk(const DenseLayer& dense, std::span<const int> labels,
                    std::span<const double> x, std::span<double> d_chunk,
                    std::span<double> dw) const;

  std::shared_ptr<const Sequential> net_;
  double l2_reg_;
  std::size_t max_chunk_;
};

}  // namespace fedvr::nn
