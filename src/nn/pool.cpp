#include "nn/pool.h"

#include <limits>

#include "tensor/vecops.h"
#include "util/error.h"

namespace fedvr::nn {

MaxPool2dLayer::MaxPool2dLayer(std::size_t channels, std::size_t height,
                               std::size_t width, std::size_t pool)
    : channels_(channels), height_(height), width_(width), pool_(pool) {
  FEDVR_CHECK(channels > 0 && pool >= 1);
  FEDVR_CHECK_MSG(height >= pool && width >= pool,
                  "pool window " << pool << " larger than plane " << height
                                 << "x" << width);
}

void MaxPool2dLayer::init_params(util::Rng& /*rng*/,
                                 std::span<double> w) const {
  FEDVR_CHECK(w.empty());
}

void MaxPool2dLayer::forward(std::span<const double> w, std::size_t batch,
                             std::span<const double> x, std::span<double> y,
                             LayerCache* cache) const {
  FEDVR_CHECK(w.empty());
  FEDVR_CHECK(x.size() == batch * in_size() && y.size() == batch * out_size());
  const std::size_t oh = out_h();
  const std::size_t ow = out_w();
  if (cache != nullptr) cache->indices.resize(batch * out_size());
  for (std::size_t s = 0; s < batch; ++s) {
    const double* in = x.data() + s * in_size();
    double* out = y.data() + s * out_size();
    std::size_t* arg = (cache != nullptr)
                           ? cache->indices.data() + s * out_size()
                           : nullptr;
    for (std::size_t c = 0; c < channels_; ++c) {
      const double* plane = in + c * height_ * width_;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          double best = -std::numeric_limits<double>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t py = 0; py < pool_; ++py) {
            for (std::size_t px = 0; px < pool_; ++px) {
              const std::size_t iy = oy * pool_ + py;
              const std::size_t ix = ox * pool_ + px;
              const std::size_t idx = iy * width_ + ix;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t out_idx = (c * oh + oy) * ow + ox;
          out[out_idx] = best;
          if (arg != nullptr) {
            arg[out_idx] = c * height_ * width_ + best_idx;
          }
        }
      }
    }
  }
}

void MaxPool2dLayer::backward(std::span<const double> w, std::size_t batch,
                              std::span<const double> /*x*/,
                              std::span<const double> /*y*/,
                              std::span<const double> dy,
                              std::span<double> dx, std::span<double> dw,
                              const LayerCache& cache) const {
  FEDVR_CHECK(w.empty() && dw.empty());
  FEDVR_CHECK(dy.size() == batch * out_size());
  FEDVR_CHECK(dx.empty() || dx.size() == batch * in_size());
  FEDVR_CHECK(cache.indices.size() == batch * out_size());
  if (dx.empty()) return;
  tensor::fill(dx, 0.0);
  for (std::size_t s = 0; s < batch; ++s) {
    const double* d_out = dy.data() + s * out_size();
    double* d_in = dx.data() + s * in_size();
    const std::size_t* arg = cache.indices.data() + s * out_size();
    for (std::size_t o = 0; o < out_size(); ++o) {
      d_in[arg[o]] += d_out[o];
    }
  }
}

}  // namespace fedvr::nn
