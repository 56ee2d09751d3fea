#include "nn/feedforward.h"

#include <algorithm>

#include "check/check.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "tensor/kernels.h"
#include "tensor/vecops.h"
#include "util/error.h"

namespace fedvr::nn {

namespace {

// Per-thread evaluation scratch: the Sequential workspace plus every gather
// / gradient staging buffer loss(), loss_and_gradient() and predict() need.
// One model evaluation allocates these tens of times per local epoch;
// thread_local reuse makes repeat evaluations allocation-free in steady
// state (vector capacity is retained across calls). Safe because model
// evaluation never re-enters model code on the same thread.
struct EvalScratch {
  Sequential::Workspace ws;
  tensor::AlignedVector<double> xbuf;
  std::vector<int> ybuf;
  tensor::AlignedVector<double> d_logits;
  tensor::AlignedVector<double> chunk_grad;
};

EvalScratch& eval_scratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

}  // namespace

FeedForwardModel::FeedForwardModel(std::shared_ptr<const Sequential> net,
                                   double l2_reg, std::size_t max_chunk)
    : net_(std::move(net)), l2_reg_(l2_reg), max_chunk_(max_chunk) {
  FEDVR_CHECK(net_ != nullptr);
  FEDVR_CHECK(l2_reg >= 0.0);
  FEDVR_CHECK(max_chunk_ >= 1);
}

const DenseLayer* FeedForwardModel::replay_layer() const {
  // Deeper networks would have to keep every layer's activations, and a
  // shape whose forward rows depend on the call would replay other bits.
  const auto* dense = net_->num_layers() == 1
                          ? dynamic_cast<const DenseLayer*>(&net_->layer(0))
                          : nullptr;
  return dense != nullptr &&
                 tensor::abt_rows_call_invariant(
                     max_chunk_, dense->out_size(), dense->in_size())
             ? dense
             : nullptr;
}

void FeedForwardModel::initialize(util::Rng& rng, std::span<double> w) const {
  FEDVR_CHECK(w.size() == num_parameters());
  net_->init_params(rng, w);
}

FeedForwardModel::ChunkRows FeedForwardModel::chunk_rows(
    const data::Dataset& ds, std::span<const std::size_t> indices,
    tensor::AlignedVector<double>& xbuf, std::vector<int>& ybuf) const {
  const std::size_t dim = ds.feature_dim();
  FEDVR_CHECK_MSG(dim == net_->in_size(),
                  "dataset features (" << dim << ") do not match model input ("
                                       << net_->in_size() << ")");
  const std::size_t count = indices.size();
  std::size_t run = 1;
  while (run < count && indices[run] == indices[0] + run) ++run;
  if (run == count) {
    return {ds.rows(indices[0], count), ds.labels(indices[0], count)};
  }
  xbuf.resize(count * dim);
  ybuf.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const auto row = ds.sample(indices[k]);
    std::copy(row.begin(), row.end(),
              xbuf.begin() + static_cast<std::ptrdiff_t>(k * dim));
    ybuf[k] = ds.label(indices[k]);
  }
  return {xbuf, ybuf};
}

double FeedForwardModel::loss(std::span<const double> w,
                              const data::Dataset& ds,
                              std::span<const std::size_t> indices) const {
  FEDVR_CHECK(w.size() == num_parameters());
  FEDVR_CHECK(!indices.empty());
  EvalScratch& scratch = eval_scratch();
  Sequential::Workspace& ws = scratch.ws;
  tensor::AlignedVector<double>& xbuf = scratch.xbuf;
  std::vector<int>& ybuf = scratch.ybuf;
  double weighted = 0.0;
  for (std::size_t start = 0; start < indices.size(); start += max_chunk_) {
    const std::size_t count = std::min(max_chunk_, indices.size() - start);
    const ChunkRows rows =
        chunk_rows(ds, indices.subspan(start, count), xbuf, ybuf);
    const auto logits = net_->forward(w, count, rows.x, ws, /*training=*/false);
    weighted += static_cast<double>(count) *
                softmax_cross_entropy(count, net_->out_size(), logits, rows.y);
  }
  double value = weighted / static_cast<double>(indices.size());
  if (l2_reg_ > 0.0) value += 0.5 * l2_reg_ * tensor::nrm2_squared(w);
  return value;
}

template <typename ChunkStep>
double FeedForwardModel::gradient_chunks(std::span<const double> w,
                                         const data::Dataset& ds,
                                         std::span<const std::size_t> indices,
                                         std::span<double> grad,
                                         const ChunkStep& chunk_step) const {
  FEDVR_CHECK(w.size() == num_parameters());
  FEDVR_CHECK(grad.size() == num_parameters());
  FEDVR_CHECK(!indices.empty());
  tensor::fill(grad, 0.0);
  EvalScratch& scratch = eval_scratch();
  tensor::AlignedVector<double>& xbuf = scratch.xbuf;
  std::vector<int>& ybuf = scratch.ybuf;
  tensor::AlignedVector<double>& d_logits = scratch.d_logits;
  tensor::AlignedVector<double>& chunk_grad = scratch.chunk_grad;
  // One chunk is the whole batch: its mean gradient is the result and the
  // count/n rescale below would be exactly 1. Every layer accumulates into
  // dw and, rounding to nearest, adding to +0.0 never yields -0.0, so
  // backpropagating straight into the zeroed grad gives the bits of
  // 0 + 1 * chunk.
  const bool one_chunk = indices.size() <= max_chunk_;
  if (!one_chunk) chunk_grad.resize(num_parameters());
  // Sized once, for the largest chunk; each chunk uses a prefix.
  const std::size_t classes = net_->out_size();
  d_logits.resize(std::min(max_chunk_, indices.size()) * classes);
  double weighted = 0.0;
  for (std::size_t start = 0; start < indices.size(); start += max_chunk_) {
    const std::size_t count = std::min(max_chunk_, indices.size() - start);
    const ChunkRows rows =
        chunk_rows(ds, indices.subspan(start, count), xbuf, ybuf);
    const auto d_chunk = std::span<double>(d_logits).first(count * classes);
    if (one_chunk) {
      weighted += static_cast<double>(count) *
                  chunk_step(start, count, rows, d_chunk, grad);
      continue;
    }
    // Chunk gradients are per-chunk means; rescale into a global mean.
    tensor::fill(chunk_grad, 0.0);
    weighted += static_cast<double>(count) *
                chunk_step(start, count, rows, d_chunk,
                           std::span<double>(chunk_grad));
    tensor::axpy(static_cast<double>(count) /
                     static_cast<double>(indices.size()),
                 chunk_grad, grad);
  }
  if (l2_reg_ > 0.0) tensor::axpy(l2_reg_, w, grad);
  // Model boundary: a non-finite gradient here silently corrupts every
  // downstream estimator (SVRG/SARAH difference terms amplify it).
  FEDVR_CHECK_FINITE(grad, "model gradient");
  return weighted / static_cast<double>(indices.size());
}

double FeedForwardModel::loss_and_gradient(
    std::span<const double> w, const data::Dataset& ds,
    std::span<const std::size_t> indices, std::span<double> grad) const {
  Sequential::Workspace& ws = eval_scratch().ws;
  const std::size_t classes = net_->out_size();
  double value = gradient_chunks(
      w, ds, indices, grad,
      [&](std::size_t /*start*/, std::size_t count, const ChunkRows& rows,
          std::span<double> d_chunk, std::span<double> dw) {
        const auto logits =
            net_->forward(w, count, rows.x, ws, /*training=*/true);
        const double chunk_loss = softmax_cross_entropy_backward(
            count, classes, logits, rows.y, d_chunk);
        net_->backward(w, count, rows.x, d_chunk, dw, ws);
        return chunk_loss;
      });
  if (l2_reg_ > 0.0) value += 0.5 * l2_reg_ * tensor::nrm2_squared(w);
  return value;
}

void FeedForwardModel::replay_chunk(const DenseLayer& dense,
                                    std::span<const int> labels,
                                    std::span<const double> x,
                                    std::span<double> d_chunk,
                                    std::span<double> dw) const {
  softmax_cross_entropy_adjust(labels.size(), net_->out_size(), labels,
                               d_chunk);
  FEDVR_CHECK_FINITE(d_chunk, "sequential upstream gradient");
  dense.param_gradient(labels.size(), x, d_chunk, dw);
}

double FeedForwardModel::record_gradient(std::span<const double> w,
                                         const data::Dataset& ds,
                                         std::span<double> grad,
                                         GradientRecord& record) const {
  const DenseLayer* dense = replay_layer();
  if (dense == nullptr) return Model::record_gradient(w, ds, grad, record);
  record.start(w);
  Sequential::Workspace& ws = eval_scratch().ws;
  const std::size_t classes = net_->out_size();
  record.outputs.resize(ds.size() * classes);
  double value = gradient_chunks(
      w, ds, identity_indices(ds.size()), grad,
      [&](std::size_t start, std::size_t count, const ChunkRows& rows,
          std::span<double> d_chunk, std::span<double> dw) {
        const auto logits =
            net_->forward(w, count, rows.x, ws, /*training=*/false);
        const auto probs = std::span<double>(record.outputs)
                               .subspan(start * classes, count * classes);
        const double chunk_loss =
            softmax_probabilities(count, classes, logits, rows.y, probs);
        std::copy(probs.begin(), probs.end(), d_chunk.begin());
        replay_chunk(*dense, rows.y, rows.x, d_chunk, dw);
        return chunk_loss;
      });
  record.rows = ds.size();
  record.width = classes;
  if (l2_reg_ > 0.0) value += 0.5 * l2_reg_ * tensor::nrm2_squared(w);
  return value;
}

void FeedForwardModel::replay_gradient(
    std::span<const double> w, const data::Dataset& ds,
    std::span<const std::size_t> indices, const GradientRecord& record,
    std::span<const std::size_t> record_rows, std::span<double> grad) const {
  const DenseLayer* dense = replay_layer();
  if (dense == nullptr) {
    Model::replay_gradient(w, ds, indices, record, record_rows, grad);
    return;
  }
  record.check_taken_at(w);
  FEDVR_CHECK_SHAPE(record_rows.size(), indices.size());
  const std::size_t classes = net_->out_size();
  FEDVR_CHECK_MSG(record.width == classes,
                  "gradient record holds " << record.width
                                           << " outputs per sample, model has "
                                           << classes);
  const std::span<const double> outputs(record.outputs);
  (void)gradient_chunks(
      w, ds, indices, grad,
      [&](std::size_t start, std::size_t count, const ChunkRows& rows,
          std::span<double> d_chunk, std::span<double> dw) {
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t row = record_rows[start + k];
          FEDVR_CHECK_INDEX(row, record.rows);
          const auto probs = outputs.subspan(row * classes, classes);
          std::copy(probs.begin(), probs.end(),
                    d_chunk.begin() +
                        static_cast<std::ptrdiff_t>(k * classes));
        }
        replay_chunk(*dense, rows.y, rows.x, d_chunk, dw);
        return 0.0;
      });
}

void FeedForwardModel::predict(std::span<const double> w,
                               const data::Dataset& ds,
                               std::span<const std::size_t> indices,
                               std::span<std::size_t> out) const {
  FEDVR_CHECK(w.size() == num_parameters());
  FEDVR_CHECK(out.size() == indices.size());
  EvalScratch& scratch = eval_scratch();
  Sequential::Workspace& ws = scratch.ws;
  tensor::AlignedVector<double>& xbuf = scratch.xbuf;
  std::vector<int>& ybuf = scratch.ybuf;
  for (std::size_t start = 0; start < indices.size(); start += max_chunk_) {
    const std::size_t count = std::min(max_chunk_, indices.size() - start);
    const ChunkRows rows =
        chunk_rows(ds, indices.subspan(start, count), xbuf, ybuf);
    const auto logits = net_->forward(w, count, rows.x, ws, /*training=*/false);
    tensor::argmax_rows(count, net_->out_size(), logits,
                        out.subspan(start, count));
  }
}

}  // namespace fedvr::nn
