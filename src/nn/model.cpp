#include "nn/model.h"

#include <numeric>

#include "util/error.h"

namespace fedvr::nn {

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

std::span<const std::size_t> identity_indices(std::size_t n) {
  thread_local std::vector<std::size_t> iota;
  if (iota.size() < n) {
    const std::size_t have = iota.size();
    iota.resize(n);
    std::iota(iota.begin() + static_cast<std::ptrdiff_t>(have), iota.end(),
              have);
  }
  return std::span<const std::size_t>(iota).first(n);
}

double Model::full_loss(std::span<const double> w,
                        const data::Dataset& ds) const {
  return loss(w, ds, identity_indices(ds.size()));
}

double Model::full_gradient(std::span<const double> w,
                            const data::Dataset& ds,
                            std::span<double> grad) const {
  return loss_and_gradient(w, ds, identity_indices(ds.size()), grad);
}

double Model::accuracy(std::span<const double> w,
                       const data::Dataset& ds) const {
  FEDVR_CHECK(!ds.empty());
  std::vector<std::size_t> pred(ds.size());
  predict(w, ds, identity_indices(ds.size()), pred);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (pred[i] == static_cast<std::size_t>(ds.label(i))) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(ds.size());
}

std::vector<double> Model::initial_parameters(util::Rng& rng) const {
  std::vector<double> w(num_parameters());
  initialize(rng, w);
  return w;
}

}  // namespace fedvr::nn
