#include "nn/model.h"

#include <bit>
#include <cstdint>
#include <numeric>

#include "check/check.h"
#include "util/error.h"

namespace fedvr::nn {

std::size_t GradientRecord::probe(std::size_t k, std::size_t size) {
  return k * (size - 1) / (kProbes - 1);
}

void GradientRecord::start(std::span<const double> w) {
  rows = 0;
  width = 0;
  at_ = w.data();
  at_size_ = w.size();
  for (std::size_t k = 0; k < kProbes && !w.empty(); ++k) {
    at_values_[k] = w[probe(k, w.size())];
  }
}

void GradientRecord::check_taken_at(std::span<const double> w) const {
  FEDVR_CHECK_PRE(w.data() == at_ && w.size() == at_size_,
                  "gradient record replayed at another parameter vector");
  for (std::size_t k = 0; k < kProbes && !w.empty(); ++k) {
    FEDVR_CHECK_PRE(std::bit_cast<std::uint64_t>(w[probe(k, w.size())]) ==
                        std::bit_cast<std::uint64_t>(at_values_[k]),
                    "gradient record replayed at parameters changed since "
                    "it was taken (coordinate "
                        << probe(k, w.size()) << ")");
  }
}

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

double Model::record_gradient(std::span<const double> w,
                              const data::Dataset& ds, std::span<double> grad,
                              GradientRecord& record) const {
  record.start(w);
  return full_gradient(w, ds, grad);
}

void Model::replay_gradient(std::span<const double> w, const data::Dataset& ds,
                            std::span<const std::size_t> indices,
                            const GradientRecord& record,
                            [[maybe_unused]] std::span<const std::size_t>
                                record_rows,
                            std::span<double> grad) const {
  record.check_taken_at(w);
  FEDVR_CHECK_SHAPE(record_rows.size(), indices.size());
  (void)loss_and_gradient(w, ds, indices, grad);
}

std::vector<double> Model::initial_parameters(util::Rng& rng) const {
  std::vector<double> w(num_parameters());
  initialize(rng, w);
  return w;
}

}  // namespace fedvr::nn
