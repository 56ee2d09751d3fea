#include "nn/dense.h"

#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/random_init.h"
#include "tensor/vecops.h"
#include "util/error.h"

namespace fedvr::nn {

DenseLayer::DenseLayer(std::size_t in, std::size_t out) : in_(in), out_(out) {
  FEDVR_CHECK(in > 0 && out > 0);
}

void DenseLayer::init_params(util::Rng& rng, std::span<double> w) const {
  FEDVR_CHECK(w.size() == param_count());
  tensor::fill_glorot_uniform(rng, w.subspan(0, out_ * in_), in_, out_);
  tensor::fill(w.subspan(out_ * in_, out_), 0.0);
}

void DenseLayer::forward(std::span<const double> w, std::size_t batch,
                         std::span<const double> x, std::span<double> y,
                         LayerCache* /*cache*/) const {
  FEDVR_CHECK(w.size() == param_count());
  FEDVR_CHECK(x.size() == batch * in_ && y.size() == batch * out_);
  const auto weights = w.subspan(0, out_ * in_);
  const auto bias = w.subspan(out_ * in_, out_);
  // y (B x out) = x (B x in) * W^T (in x out)
  tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kYes, batch, out_,
                      in_, 1.0, x, weights, 0.0, y);
  tensor::add_bias_rows(batch, out_, y, bias);
}

void DenseLayer::backward(std::span<const double> w, std::size_t batch,
                          std::span<const double> x,
                          std::span<const double> /*y*/,
                          std::span<const double> dy, std::span<double> dx,
                          std::span<double> dw,
                          const LayerCache& /*cache*/) const {
  FEDVR_CHECK(w.size() == param_count());
  FEDVR_CHECK(dx.empty() || dx.size() == batch * in_);
  if (!dx.empty()) {
    FEDVR_CHECK(dy.size() == batch * out_);
    // dx (B x in) = dy (B x out) * W (out x in)
    tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kNo, batch, in_,
                        out_, 1.0, dy, w.subspan(0, out_ * in_), 0.0, dx);
  }
  param_gradient(batch, x, dy, dw);
}

void DenseLayer::param_gradient(std::size_t batch, std::span<const double> x,
                                std::span<const double> dy,
                                std::span<double> dw) const {
  FEDVR_CHECK(dw.size() == param_count());
  FEDVR_CHECK(x.size() == batch * in_ && dy.size() == batch * out_);
  auto d_weights = dw.subspan(0, out_ * in_);
  auto d_bias = dw.subspan(out_ * in_, out_);
  // dW (out x in) += dy^T (out x B) * x (B x in)
  tensor::gemm_packed(tensor::Trans::kYes, tensor::Trans::kNo, out_, in_,
                      batch, 1.0, dy, x, 1.0, d_weights);
  // db += column sums of dy
  thread_local tensor::AlignedVector<double> bias_grad_buf;
  const auto bias_grad = tensor::scratch(bias_grad_buf, out_);
  tensor::sum_rows(batch, out_, dy, bias_grad);
  tensor::axpy(1.0, bias_grad, d_bias);
}

}  // namespace fedvr::nn
