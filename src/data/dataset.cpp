#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace fedvr::data {

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.assign_rows(*this, indices);
  return out;
}

void Dataset::assign_rows(const Dataset& src,
                          std::span<const std::size_t> indices) {
  FEDVR_CHECK_MSG(&src != this, "assign_rows: source and destination alias");
  sample_shape_ = src.sample_shape_;
  num_classes_ = src.num_classes_;
  const std::size_t dim = feature_dim();
  features_.resize(indices.size() * dim);
  labels_.resize(indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const auto row = src.sample(indices[k]);
    std::copy(row.begin(), row.end(),
              features_.begin() + static_cast<std::ptrdiff_t>(k * dim));
    labels_[k] = src.labels_[indices[k]];
  }
}

std::pair<Dataset, Dataset> Dataset::split(util::Rng& rng,
                                           double train_fraction) const {
  FEDVR_CHECK_MSG(train_fraction > 0.0 && train_fraction < 1.0,
                  "train_fraction must be in (0,1), got " << train_fraction);
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(std::span<std::size_t>(order));
  // Ceil so tiny devices keep at least one training sample.
  const auto n_train = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(size()),
                       std::ceil(train_fraction * static_cast<double>(size()))));
  const std::span<const std::size_t> train_idx(order.data(), n_train);
  const std::span<const std::size_t> test_idx(order.data() + n_train,
                                              size() - n_train);
  return {subset(train_idx), subset(test_idx)};
}

void Dataset::append(const Dataset& other) {
  if (other.empty()) return;
  if (empty() && feature_dim() != other.feature_dim()) {
    // Adopt the shape when this dataset was default-constructed.
    FEDVR_CHECK_MSG(labels_.empty() && features_.empty(),
                    "append shape mismatch on non-empty dataset");
    sample_shape_ = other.sample_shape_;
    num_classes_ = other.num_classes_;
  }
  FEDVR_CHECK_MSG(sample_shape_ == other.sample_shape_,
                  "append: sample shape mismatch " << sample_shape_.str()
                                                   << " vs "
                                                   << other.sample_shape_.str());
  FEDVR_CHECK_MSG(num_classes_ == other.num_classes_,
                  "append: class count mismatch");
  features_.insert(features_.end(), other.features_.begin(),
                   other.features_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(num_classes_, 0);
  for (int y : labels_) hist[static_cast<std::size_t>(y)]++;
  return hist;
}

Dataset FederatedDataset::pooled_test() const {
  FEDVR_CHECK(!test.empty());
  Dataset pooled(test.front().sample_shape(), 0,
                 test.front().num_classes());
  for (const auto& d : test) pooled.append(d);
  return pooled;
}

}  // namespace fedvr::data
