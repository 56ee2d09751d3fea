// Server-side aggregation: the pluggable line-12 seam.
//
// Algorithm 1 line 12 is a D_n/D-weighted average of the survivors' local
// models — and a single corrupted update (one NaN, a flipped sign, a 100×
// delta) poisons it for every later round. This header carves that
// reduction out of the trainer into an abstract `Aggregator` so robust
// alternatives plug in behind one interface, plus the server-side defense
// policy (`DefenseOptions`) that validates updates *before* any aggregator
// sees them.
//
// Implementations (make_aggregator):
//   * mean          — the survivor-reweighted weighted average the trainer
//                     has always computed, reduce order and arithmetic
//                     bit-identical to the pre-seam code path (the default;
//                     a null TrainerOptions::aggregator selects it);
//   * median        — coordinate-wise median, ignoring non-finite values
//                     per coordinate; tolerates < 50% arbitrary corruption;
//   * trimmed_mean  — coordinate-wise mean after dropping the lowest and
//                     highest trim_fraction of values per coordinate;
//   * norm_clip     — weighted mean of updates whose deltas from the
//                     anchor are clipped to a norm bound (fixed, or the
//                     median survivor norm when clip_norm <= 0).
//
// Determinism contract: every implementation reduces in a fixed order that
// does not depend on the thread-pool size. The coordinate-wise aggregators
// parallelize over fixed 256-coordinate chunks (each coordinate's result is
// independent and written to a disjoint output slot), so traces stay
// bit-identical across pool sizes 1/2/N.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace fedvr::fl {

enum class AggregatorKind {
  kMean,           // survivor-reweighted weighted average (the default)
  kMedian,         // coordinate-wise median
  kTrimmedMean,    // coordinate-wise trimmed mean
  kNormClippedMean,  // weighted mean of norm-clipped deltas
};

struct AggregatorOptions {
  /// Trimmed mean: fraction of values dropped from EACH tail per
  /// coordinate, in [0, 0.5). 0.1 with 10 survivors drops the single
  /// smallest and largest value per coordinate.
  double trim_fraction = 0.1;
  /// Norm clip: updates with ||w_n - anchor|| above this are scaled down to
  /// the bound. <= 0 selects an adaptive bound per round: the median of the
  /// survivors' delta norms (robust as long as most devices are honest).
  double clip_norm = 0.0;
};

/// Combines one round's accepted updates into the next global model.
class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// Stable identifier ("mean", "median", ...) for traces and CLIs.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Aggregates `updates` into `out`. `updates[i]` is one device's full
  /// local model w_n^(s) and `weights[i]` its raw aggregation weight D_n/D,
  /// both in ascending device order; `anchor` is w̄^(s-1), the model the
  /// round started from (robust aggregators fall back to it coordinate-wise
  /// when every value is non-finite). All spans have equal length except
  /// `weights` (one entry per update). Called with >= 1 update; a
  /// zero-survivor round never reaches the aggregator. `out` must not alias
  /// `anchor` or any update.
  virtual void aggregate(std::span<const double> anchor,
                         std::span<const std::span<const double>> updates,
                         std::span<const double> weights,
                         std::span<double> out) const = 0;
};

/// The survivor-reweighted weighted mean, out = Σ_i (w_i / Σw)·u_i: Σw is
/// accumulated in update order, then `out` is zero-filled and gets one
/// accumulate_weighted per update, in the same order. The mean aggregator
/// and the single-level tree (fl/hierarchy.h) both run exactly this, so
/// their traces are bit-identical; any change to the sequence breaks the
/// pinned hashes.
void weighted_mean(std::span<const std::span<const double>> updates,
                   std::span<const double> weights, std::span<double> out);

/// Builds an aggregator; validates `options` (always-on). The returned
/// object is stateless and immutable — share it across trainers freely.
[[nodiscard]] std::shared_ptr<const Aggregator> make_aggregator(
    AggregatorKind kind, AggregatorOptions options = {});

/// Parses "mean" / "median" / "trimmed_mean" / "norm_clip"; nullopt on
/// anything else.
[[nodiscard]] std::optional<AggregatorKind> aggregator_kind_from_name(
    std::string_view name);

/// The canonical names, in AggregatorKind order (for CLI sweeps and --help).
[[nodiscard]] std::span<const std::string_view> aggregator_names();

/// Server-side update validation and quarantine. Validation is ALWAYS-ON —
/// it is the production defense layer, independent of the FEDVR_CHECKS
/// build/runtime gates: a release build with checks compiled out must still
/// reject a NaN update rather than fold it into the global model.
struct DefenseOptions {
  /// Reject updates containing NaN or ±Inf before aggregation. On by
  /// default; with no corruption in flight nothing is ever rejected, so the
  /// healthy path's traces are unchanged (the scan does no FP arithmetic).
  bool reject_non_finite = true;
  /// When > 0, reject updates with ||w_n - w̄^(s-1)|| > bound (catches
  /// finite but magnitude-exploded updates the finiteness scan cannot).
  double update_norm_bound = 0.0;
  /// After this many rejected updates, a device is quarantined — excluded
  /// from participation entirely — for `quarantine_rounds` rounds. Its
  /// strike counter resets when the quarantine is imposed, so a repeat
  /// offender is re-quarantined after another full strike count. 0 disables
  /// quarantine (rejections still count in RoundMetrics).
  std::size_t quarantine_strikes = 0;
  /// Quarantine length in rounds (>= 1 when quarantine is enabled).
  std::size_t quarantine_rounds = 5;

  /// Always-on validation with clear messages (throws util::Error).
  void validate() const;

  [[nodiscard]] bool quarantine_enabled() const {
    return quarantine_strikes > 0;
  }
};

}  // namespace fedvr::fl
