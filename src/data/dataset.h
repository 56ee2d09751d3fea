// In-memory labeled dataset.
//
// Samples are stored contiguously (one row per sample, row length =
// sample_shape.numel()) so models can view them as flat feature vectors or,
// via sample_shape, as CHW images. Labels are class indices. Row 0 starts
// on a cache line, the GEMM kernels' X operand (tensor/aligned.h).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/aligned.h"
#include "tensor/shape.h"
#include "util/error.h"
#include "util/rng.h"

namespace fedvr::data {

class Dataset {
 public:
  Dataset() = default;

  /// Allocates storage for `n` samples of the given per-sample shape with
  /// `num_classes` distinct labels.
  Dataset(tensor::Shape sample_shape, std::size_t n, std::size_t num_classes)
      : sample_shape_(sample_shape),
        num_classes_(num_classes),
        features_(n * sample_shape.numel(), 0.0),
        labels_(n, 0) {
    FEDVR_CHECK(num_classes >= 2);
  }

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] bool empty() const { return labels_.empty(); }
  [[nodiscard]] std::size_t feature_dim() const {
    return sample_shape_.numel();
  }
  [[nodiscard]] const tensor::Shape& sample_shape() const {
    return sample_shape_;
  }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }

  [[nodiscard]] std::span<const double> sample(std::size_t i) const {
    FEDVR_CHECK_MSG(i < size(), "sample index " << i << " >= " << size());
    return {features_.data() + i * feature_dim(), feature_dim()};
  }
  [[nodiscard]] std::span<double> mutable_sample(std::size_t i) {
    FEDVR_CHECK_MSG(i < size(), "sample index " << i << " >= " << size());
    return {features_.data() + i * feature_dim(), feature_dim()};
  }

  /// Feature rows of samples [first, first + count) as one contiguous
  /// (count x feature_dim()) span.
  [[nodiscard]] std::span<const double> rows(std::size_t first,
                                             std::size_t count) const {
    FEDVR_CHECK_MSG(first <= size() && count <= size() - first,
                    "rows [" << first << ", " << first + count
                             << ") exceed " << size() << " samples");
    return {features_.data() + first * feature_dim(), count * feature_dim()};
  }
  /// Labels of samples [first, first + count).
  [[nodiscard]] std::span<const int> labels(std::size_t first,
                                            std::size_t count) const {
    FEDVR_CHECK_MSG(first <= size() && count <= size() - first,
                    "labels [" << first << ", " << first + count
                               << ") exceed " << size() << " samples");
    return {labels_.data() + first, count};
  }

  [[nodiscard]] int label(std::size_t i) const {
    FEDVR_CHECK_MSG(i < size(), "label index " << i << " >= " << size());
    return labels_[i];
  }
  void set_label(std::size_t i, int y) {
    FEDVR_CHECK_MSG(i < size(), "label index " << i << " >= " << size());
    FEDVR_CHECK_MSG(y >= 0 && static_cast<std::size_t>(y) < num_classes_,
                    "label " << y << " out of range [0, " << num_classes_
                             << ")");
    labels_[i] = y;
  }

  /// New dataset containing the given samples (copies).
  [[nodiscard]] Dataset subset(std::span<const std::size_t> indices) const;

  /// Replaces this dataset's contents with copies of `src`'s samples at
  /// `indices`, in order, keeping this dataset's storage: once its
  /// capacity covers the largest index set, a refill allocates nothing.
  /// `src` must be another dataset.
  void assign_rows(const Dataset& src, std::span<const std::size_t> indices);

  /// Splits into (train, test) with `train_fraction` of samples (shuffled by
  /// `rng`) going to train. The paper uses 75/25.
  [[nodiscard]] std::pair<Dataset, Dataset> split(util::Rng& rng,
                                                  double train_fraction) const;

  /// Appends all samples of `other` (shapes and class counts must match).
  void append(const Dataset& other);

  /// Per-class sample counts (length num_classes()).
  [[nodiscard]] std::vector<std::size_t> class_histogram() const;

 private:
  tensor::Shape sample_shape_;
  std::size_t num_classes_ = 0;
  tensor::AlignedVector<double> features_;
  std::vector<int> labels_;
};

/// A federated dataset: one local train and test set per device, plus the
/// pooled test set used for global accuracy reporting.
struct FederatedDataset {
  std::vector<Dataset> train;  // one per device
  std::vector<Dataset> test;   // one per device

  [[nodiscard]] std::size_t num_devices() const { return train.size(); }

  /// Total training samples across devices (the paper's D).
  [[nodiscard]] std::size_t total_train_size() const {
    std::size_t total = 0;
    for (const auto& d : train) total += d.size();
    return total;
  }

  /// Aggregation weight D_n / D for device n.
  [[nodiscard]] double weight(std::size_t n) const {
    return static_cast<double>(train[n].size()) /
           static_cast<double>(total_train_size());
  }

  /// All device test sets pooled into one (for global test accuracy).
  [[nodiscard]] Dataset pooled_test() const;
};

}  // namespace fedvr::data
