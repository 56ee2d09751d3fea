#include "nn/conv2d.h"

#include <algorithm>

#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/random_init.h"
#include "tensor/vecops.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace fedvr::nn {

namespace {

// Samples per weight-gradient accumulation block in backward(). The block
// structure is fixed by this constant alone — never by the pool size — so
// the dW reduction order (ascending sample within a block, ascending block)
// is identical for serial and parallel runs: the determinism contract.
constexpr std::size_t kGradBlock = 4;

// The calling thread's im2col columns (tensor/arena.h). Forward and
// backward share them: neither runs inside the other.
thread_local tensor::AlignedVector<double> tls_cols;

}  // namespace

Conv2dLayer::Conv2dLayer(tensor::ConvGeometry geometry,
                         std::size_t out_channels)
    : geometry_(geometry), out_channels_(out_channels) {
  FEDVR_CHECK(out_channels > 0);
  FEDVR_CHECK(geometry.channels > 0 && geometry.height > 0 &&
              geometry.width > 0);
}

void Conv2dLayer::init_params(util::Rng& rng, std::span<double> w) const {
  FEDVR_CHECK(w.size() == param_count());
  const std::size_t fan_in = geometry_.col_rows();
  const std::size_t fan_out =
      out_channels_ * geometry_.kernel_h * geometry_.kernel_w;
  tensor::fill_glorot_uniform(rng, w.subspan(0, out_channels_ * fan_in),
                              fan_in, fan_out);
  tensor::fill(w.subspan(out_channels_ * fan_in, out_channels_), 0.0);
}

void Conv2dLayer::forward(std::span<const double> w, std::size_t batch,
                          std::span<const double> x, std::span<double> y,
                          LayerCache* /*cache*/) const {
  FEDVR_CHECK(w.size() == param_count());
  FEDVR_CHECK(x.size() == batch * in_size() && y.size() == batch * out_size());
  const std::size_t col_rows = geometry_.col_rows();
  const std::size_t pixels = geometry_.out_pixels();
  const auto weights = w.subspan(0, out_channels_ * col_rows);
  const auto bias = w.subspan(out_channels_ * col_rows, out_channels_);

  // Samples are independent and write disjoint slices of y, so the batch
  // fans out across the pool; each worker keeps its own im2col scratch
  // (caching columns for every sample at once would cost
  // batch*col_rows*pixels doubles — tens of MB for the paper's CNN).
  util::ThreadPool::global().parallel_for(0, batch, [&](std::size_t s) {
    const auto cols = tensor::scratch(tls_cols, col_rows * pixels);
    const auto image = x.subspan(s * in_size(), in_size());
    auto out = y.subspan(s * out_size(), out_size());
    tensor::im2col(geometry_, image, cols);
    // out (oc x pixels) = W (oc x col_rows) * cols (col_rows x pixels)
    tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kNo, out_channels_,
                        pixels, col_rows, 1.0, weights, cols, 0.0, out);
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      double* plane = out.data() + oc * pixels;
      const double b = bias[oc];
      for (std::size_t p = 0; p < pixels; ++p) plane[p] += b;
    }
  });
}

void Conv2dLayer::backward(std::span<const double> w, std::size_t batch,
                           std::span<const double> x,
                           std::span<const double> /*y*/,
                           std::span<const double> dy, std::span<double> dx,
                           std::span<double> dw,
                           const LayerCache& /*cache*/) const {
  FEDVR_CHECK(w.size() == param_count() && dw.size() == param_count());
  FEDVR_CHECK(x.size() == batch * in_size() &&
              dy.size() == batch * out_size());
  FEDVR_CHECK(dx.empty() || dx.size() == batch * in_size());
  const std::size_t col_rows = geometry_.col_rows();
  const std::size_t pixels = geometry_.out_pixels();
  const auto weights = w.subspan(0, out_channels_ * col_rows);
  auto d_weights = dw.subspan(0, out_channels_ * col_rows);
  auto d_bias = dw.subspan(out_channels_ * col_rows, out_channels_);

  // dx is disjoint per sample, but dW/db sum over the batch. Each
  // kGradBlock-sample block accumulates into its own partial buffer in
  // parallel; the partials are then reduced serially in ascending block
  // order, so the floating-point reduction tree never depends on thread
  // scheduling. The dW partials are kept transposed (col_rows x oc): that
  // GEMM shape packs cols without a strided transpose pass and benchmarks
  // faster than the (oc x col_rows) form at the paper's layer shapes; the
  // partials are folded back with add_transposed in the serial reduce.
  const std::size_t nblocks = (batch + kGradBlock - 1) / kGradBlock;
  const std::size_t wsize = out_channels_ * col_rows;
  const std::size_t psize = wsize + out_channels_;  // dW^T partial + db partial
  thread_local tensor::AlignedVector<double> partials_buf;
  const auto partials = tensor::scratch(partials_buf, nblocks * psize);
  tensor::fill(partials, 0.0);
  // W^T materialized once so every d_cols GEMM reads unit-stride operands
  // instead of re-packing the transposed weights per sample.
  thread_local tensor::AlignedVector<double> wt_buf;
  const auto wt =
      tensor::scratch(wt_buf, dx.empty() ? 0 : col_rows * out_channels_);
  if (!dx.empty()) tensor::transpose(out_channels_, col_rows, weights, wt);

  util::ThreadPool::global().parallel_for(0, nblocks, [&](std::size_t blk) {
    const auto cols = tensor::scratch(tls_cols, col_rows * pixels);
    auto pw = partials.subspan(blk * psize, wsize);
    auto pb = partials.subspan(blk * psize + wsize, out_channels_);
    const std::size_t s_end = std::min(batch, (blk + 1) * kGradBlock);
    for (std::size_t s = blk * kGradBlock; s < s_end; ++s) {
      const auto image = x.subspan(s * in_size(), in_size());
      const auto d_out = dy.subspan(s * out_size(), out_size());

      // pw (col_rows x oc) += cols (col_rows x pixels) * d_out^T (pixels x
      // oc)
      tensor::im2col(geometry_, image, cols);
      tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kYes, col_rows,
                          out_channels_, pixels, 1.0, cols, d_out, 1.0, pw);
      // pb[oc] += sum over pixels of d_out(oc, .), per sample in ascending
      // order.
      tensor::add_row_sums(out_channels_, pixels, d_out, pb);
      if (dx.empty()) continue;
      // d_cols (col_rows x pixels) = W^T (col_rows x oc) * d_out (oc x
      // pixels); cols is spent, so d_cols reuses it.
      auto d_image = dx.subspan(s * in_size(), in_size());
      tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kNo, col_rows,
                          pixels, out_channels_, 1.0, wt, d_out, 0.0, cols);
      tensor::fill(d_image, 0.0);
      tensor::col2im(geometry_, cols, d_image);
    }
  });

  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::span<const double> part = partials.subspan(blk * psize, psize);
    tensor::add_transposed(out_channels_, col_rows, part.subspan(0, wsize),
                           d_weights);
    tensor::axpy(1.0, part.subspan(wsize, out_channels_), d_bias);
  }
}

}  // namespace fedvr::nn
