#include "nn/sequential.h"

#include "check/check.h"
#include "util/error.h"

namespace fedvr::nn {

Sequential::Sequential(std::vector<std::unique_ptr<Layer>> layers)
    : layers_(std::move(layers)) {
  FEDVR_CHECK_MSG(!layers_.empty(), "Sequential needs at least one layer");
  offsets_.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    FEDVR_CHECK(layers_[i] != nullptr);
    if (i > 0) {
      FEDVR_CHECK_MSG(layers_[i - 1]->out_size() == layers_[i]->in_size(),
                      "layer " << i - 1 << " (" << layers_[i - 1]->name()
                               << ") outputs " << layers_[i - 1]->out_size()
                               << " features but layer " << i << " ("
                               << layers_[i]->name() << ") expects "
                               << layers_[i]->in_size());
    }
    offsets_.push_back(total_params_);
    total_params_ += layers_[i]->param_count();
  }
}

std::size_t Sequential::in_size() const { return layers_.front()->in_size(); }
std::size_t Sequential::out_size() const {
  return layers_.back()->out_size();
}

std::pair<std::size_t, std::size_t> Sequential::param_slice(
    std::size_t i) const {
  FEDVR_CHECK(i < layers_.size());
  return {offsets_[i], layers_[i]->param_count()};
}

void Sequential::init_params(util::Rng& rng, std::span<double> w) const {
  FEDVR_CHECK(w.size() == total_params_);
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->init_params(rng,
                            w.subspan(offsets_[i], layers_[i]->param_count()));
  }
}

std::span<const double> Sequential::forward(std::span<const double> w,
                                            std::size_t batch,
                                            std::span<const double> x,
                                            Workspace& ws,
                                            bool training) const {
  FEDVR_CHECK_SHAPE(w.size(), total_params_);
  FEDVR_CHECK_SHAPE(x.size(), batch * in_size());
  ws.activations.resize(layers_.size());
  if (training) ws.caches.resize(layers_.size());
  ws.trained_input = training ? x : std::span<const double>();
  std::span<const double> current = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    auto& out = ws.activations[i];
    // lint:allow(no-alloc-in-hot-loop) each layer's own warm buffer; allocates only past its capacity
    out.resize(batch * layers_[i]->out_size());
    layers_[i]->forward(w.subspan(offsets_[i], layers_[i]->param_count()),
                        batch, current, out,
                        training ? &ws.caches[i] : nullptr);
    current = out;
  }
  return current;
}

void Sequential::backward(std::span<const double> w, std::size_t batch,
                          std::span<const double> x,
                          std::span<const double> d_out, std::span<double> dw,
                          Workspace& ws) const {
  FEDVR_CHECK_SHAPE(w.size(), total_params_);
  FEDVR_CHECK_SHAPE(dw.size(), total_params_);
  FEDVR_CHECK_SHAPE(d_out.size(), batch * out_size());
  FEDVR_CHECK_MSG(x.data() == ws.trained_input.data() &&
                      x.size() == ws.trained_input.size() &&
                      x.size() == batch * in_size(),
                  "backward() must follow a training forward() of this batch");
  ws.grads.resize(layers_.size());
  FEDVR_CHECK_FINITE(d_out, "sequential upstream gradient");
  std::span<const double> upstream = d_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    // Nothing reads layer 0's input gradient: an empty d_in skips it.
    auto& d_in = ws.grads[i];
    // lint:allow(no-alloc-in-hot-loop) each layer's own warm buffer; allocates only past its capacity
    d_in.resize(i > 0 ? batch * layers_[i]->in_size() : 0);
    layers_[i]->backward(w.subspan(offsets_[i], layers_[i]->param_count()),
                         batch, i > 0 ? ws.activations[i - 1] : x,
                         ws.activations[i], upstream, d_in,
                         dw.subspan(offsets_[i], layers_[i]->param_count()),
                         ws.caches[i]);
    // A NaN born inside one layer's backward poisons every gradient below
    // it; catching it at the boundary names the guilty layer.
    FEDVR_CHECK_FINITE(d_in, layers_[i]->name().c_str());
    upstream = d_in;
  }
}

}  // namespace fedvr::nn
