#include "fl/aggregation.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "tensor/vecops.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace fedvr::fl {

namespace {

/// Coordinate chunk processed per pool task. Fixed (never pool-sized) so the
/// per-coordinate work — and hence every rounding decision — is identical
/// for any thread count; only the chunk→thread assignment varies.
constexpr std::size_t kCoordChunk = 256;

/// Runs fn(j) for every coordinate j, chunk-parallel with disjoint writes.
template <typename Fn>
void for_each_coordinate(std::size_t dim, const Fn& fn) {
  const std::size_t nchunks = (dim + kCoordChunk - 1) / kCoordChunk;
  util::ThreadPool::global().parallel_for(0, nchunks, [&](std::size_t c) {
    const std::size_t lo = c * kCoordChunk;
    const std::size_t hi = std::min(lo + kCoordChunk, dim);
    for (std::size_t j = lo; j < hi; ++j) fn(j);
  });
}

/// Collects the finite values of coordinate j across updates, in update
/// (ascending device) order. Returns the count written to `vals`.
std::size_t finite_coordinate_values(
    std::span<const std::span<const double>> updates, std::size_t j,
    std::span<double> vals) {
  std::size_t count = 0;
  for (const auto& u : updates) {
    if (std::isfinite(u[j])) vals[count++] = u[j];
  }
  return count;
}

/// Median of vals[0..count): sorts in place; even counts average the two
/// middle values (ascending order, so the sum is order-fixed).
double median_in_place(std::span<double> vals, std::size_t count) {
  std::sort(vals.begin(), vals.begin() + static_cast<std::ptrdiff_t>(count));
  const std::size_t mid = count / 2;
  if (count % 2 == 1) return vals[mid];
  return 0.5 * (vals[mid - 1] + vals[mid]);
}

/// The survivor-reweighted weighted average the trainer has always run.
class MeanAggregator final : public Aggregator {
 public:
  [[nodiscard]] std::string_view name() const override { return "mean"; }

  void aggregate(std::span<const double> /*anchor*/,
                 std::span<const std::span<const double>> updates,
                 std::span<const double> weights,
                 std::span<double> out) const override {
    weighted_mean(updates, weights, out);
  }
};

/// Coordinate-wise median, ignoring non-finite values per coordinate (a
/// NaN-poisoned update simply loses its vote at the poisoned coordinates).
/// Unweighted: a Byzantine device cannot buy influence with a large D_n.
class MedianAggregator final : public Aggregator {
 public:
  [[nodiscard]] std::string_view name() const override { return "median"; }

  void aggregate(std::span<const double> anchor,
                 std::span<const std::span<const double>> updates,
                 std::span<const double> /*weights*/,
                 std::span<double> out) const override {
    for_each_coordinate(anchor.size(), [&](std::size_t j) {
      std::array<double, 64> small;
      std::vector<double> large;
      std::span<double> vals(small);
      if (updates.size() > small.size()) {
        large.resize(updates.size());
        vals = large;
      }
      const std::size_t count = finite_coordinate_values(updates, j, vals);
      out[j] = count == 0 ? anchor[j] : median_in_place(vals, count);
    });
  }
};

/// Coordinate-wise trimmed mean: sort the finite values, drop
/// floor(trim_fraction * count) from each tail, average the rest in
/// ascending order. trim_fraction = 0 is the unweighted coordinate mean.
class TrimmedMeanAggregator final : public Aggregator {
 public:
  explicit TrimmedMeanAggregator(double trim_fraction)
      : trim_fraction_(trim_fraction) {}

  [[nodiscard]] std::string_view name() const override {
    return "trimmed_mean";
  }

  void aggregate(std::span<const double> anchor,
                 std::span<const std::span<const double>> updates,
                 std::span<const double> /*weights*/,
                 std::span<double> out) const override {
    for_each_coordinate(anchor.size(), [&](std::size_t j) {
      std::array<double, 64> small;
      std::vector<double> large;
      std::span<double> vals(small);
      if (updates.size() > small.size()) {
        large.resize(updates.size());
        vals = large;
      }
      const std::size_t count = finite_coordinate_values(updates, j, vals);
      if (count == 0) {
        out[j] = anchor[j];
        return;
      }
      std::sort(vals.begin(),
                vals.begin() + static_cast<std::ptrdiff_t>(count));
      // trim < 0.5 guarantees count - 2k >= 1.
      const std::size_t k = static_cast<std::size_t>(
          trim_fraction_ * static_cast<double>(count));
      double sum = 0.0;
      for (std::size_t i = k; i < count - k; ++i) sum += vals[i];
      out[j] = sum / static_cast<double>(count - 2 * k);
    });
  }

 private:
  double trim_fraction_;
};

/// Weighted mean of norm-clipped deltas: each finite update contributes
/// anchor + min(1, c/||δ_n||)·δ_n with its D_n/D weight. Bounds any single
/// device's influence on the step to the clip norm; with the adaptive bound
/// (median survivor norm) a magnitude-exploded update is shrunk to an
/// honest-sized one.
class NormClippedMeanAggregator final : public Aggregator {
 public:
  explicit NormClippedMeanAggregator(double clip_norm)
      : clip_norm_(clip_norm) {}

  [[nodiscard]] std::string_view name() const override { return "norm_clip"; }

  void aggregate(std::span<const double> anchor,
                 std::span<const std::span<const double>> updates,
                 std::span<const double> weights,
                 std::span<double> out) const override {
    const std::size_t n = updates.size();
    // Delta norms in update order; non-finite updates (possible only when
    // reject_non_finite is off) are excluded from both the bound estimate
    // and the average rather than poisoning them.
    std::vector<double> norms(n);
    std::vector<bool> finite(n);
    double weight_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d2 = tensor::squared_distance(updates[i], anchor);
      finite[i] = std::isfinite(d2);
      norms[i] = finite[i] ? std::sqrt(d2) : 0.0;
      if (finite[i]) weight_sum += weights[i];
    }
    if (weight_sum <= 0.0) {
      tensor::copy(anchor, out);
      return;
    }
    double bound = clip_norm_;
    if (bound <= 0.0) {
      std::vector<double> finite_norms;
      finite_norms.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (finite[i]) finite_norms.push_back(norms[i]);
      }
      bound = median_in_place(finite_norms, finite_norms.size());
    }
    tensor::copy(anchor, out);
    std::vector<double> delta(anchor.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (!finite[i]) continue;
      // norms[i] <= bound (including the 0/0 case) leaves δ unscaled.
      const double clip = norms[i] > bound ? bound / norms[i] : 1.0;
      tensor::sub(updates[i], anchor, delta);
      tensor::axpy(weights[i] / weight_sum * clip, delta, out);
    }
  }

 private:
  double clip_norm_;
};

constexpr std::array<std::string_view, 4> kAggregatorNames = {
    "mean", "median", "trimmed_mean", "norm_clip"};

}  // namespace

void weighted_mean(std::span<const std::span<const double>> updates,
                   std::span<const double> weights, std::span<double> out) {
  double weight_sum = 0.0;
  for (double w : weights) weight_sum += w;
  tensor::fill(out, 0.0);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    tensor::accumulate_weighted(weights[i] / weight_sum, updates[i], out);
  }
}

void DefenseOptions::validate() const {
  FEDVR_CHECK_MSG(std::isfinite(update_norm_bound) && update_norm_bound >= 0.0,
                  "update_norm_bound must be finite and >= 0 (0 disables), "
                  "got " << update_norm_bound);
  FEDVR_CHECK_MSG(!quarantine_enabled() || quarantine_rounds >= 1,
                  "quarantine_rounds must be >= 1 when quarantine_strikes > "
                  "0, got " << quarantine_rounds);
}

std::shared_ptr<const Aggregator> make_aggregator(AggregatorKind kind,
                                                  AggregatorOptions options) {
  FEDVR_CHECK_MSG(options.trim_fraction >= 0.0 && options.trim_fraction < 0.5,
                  "trim_fraction must be in [0, 0.5), got "
                      << options.trim_fraction);
  FEDVR_CHECK_MSG(std::isfinite(options.clip_norm),
                  "clip_norm must be finite (<= 0 selects the adaptive "
                  "median bound), got " << options.clip_norm);
  switch (kind) {
    case AggregatorKind::kMean:
      return std::make_shared<MeanAggregator>();
    case AggregatorKind::kMedian:
      return std::make_shared<MedianAggregator>();
    case AggregatorKind::kTrimmedMean:
      return std::make_shared<TrimmedMeanAggregator>(options.trim_fraction);
    case AggregatorKind::kNormClippedMean:
      return std::make_shared<NormClippedMeanAggregator>(options.clip_norm);
  }
  FEDVR_CHECK_MSG(false, "unknown AggregatorKind "
                             << static_cast<int>(kind));
  return nullptr;  // unreachable
}

std::optional<AggregatorKind> aggregator_kind_from_name(
    std::string_view name) {
  for (std::size_t i = 0; i < kAggregatorNames.size(); ++i) {
    if (name == kAggregatorNames[i]) {
      return static_cast<AggregatorKind>(i);
    }
  }
  return std::nullopt;
}

std::span<const std::string_view> aggregator_names() {
  return kAggregatorNames;
}

}  // namespace fedvr::fl
