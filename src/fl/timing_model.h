// The paper's analytical training-time model (§4.3, eq. 19):
//     T_total = T * (d_com + d_cmp * tau)
// where d_cmp is the device computation delay per inner iteration (Alg. 1
// lines 7-8) and d_com the per-round communication delay to the server.
// gamma = d_cmp / d_com is the weight factor swept in Fig. 1.
//
// Heterogeneous extension (DESIGN.md §11): each device may carry its own
// TimingModel, and a fault event scales its delays —
//     t_n = d_com * com_multiplier + d_cmp * slowdown * tau
// A round then lasts until the last non-crashed arrival, capped at
// TrainerOptions::round_deadline (RoundMetrics::realized_round_time).
//
// Validation here is ALWAYS ON: these are once-per-round argument checks
// via util/error.h's FEDVR_CHECK_MSG, which — unlike the compile-gated
// fedvr::check hot-path macros (FEDVR_CHECK_SHAPE & co.) — survives
// -DFEDVR_CHECKS=OFF Release builds. A release build must reject
// d_com <= 0 loudly instead of silently producing garbage gamma; the
// FEDVR_CHECKS=OFF CI leg locks this in.
#pragma once

#include "util/error.h"

namespace fedvr::fl {

struct TimingModel {
  double d_com = 1.0;  // communication delay per global round
  double d_cmp = 0.1;  // computation delay per local iteration

  /// Always-on argument validation: delays must be meaningful (d_com > 0,
  /// d_cmp >= 0). Called by every accessor below and by fl::Trainer at
  /// construction so malformed models fail fast in every build config.
  void validate() const {
    FEDVR_CHECK_MSG(d_com > 0.0, "d_com must be positive, got " << d_com);
    FEDVR_CHECK_MSG(d_cmp >= 0.0, "d_cmp must be nonnegative, got " << d_cmp);
  }

  /// Model time for one global round with tau local iterations. Algorithm 1
  /// runs at least one local iteration, so tau >= 1.
  [[nodiscard]] double round_time(std::size_t tau) const {
    validate();
    FEDVR_CHECK_MSG(tau >= 1, "round_time needs tau >= 1");
    return d_com + d_cmp * static_cast<double>(tau);
  }

  /// Fault-adjusted round time for one device:
  ///     d_com * com_multiplier + d_cmp * compute_slowdown * tau
  /// `compute_slowdown` models a straggler (>= 1); `com_multiplier` models
  /// uplink retransmissions with backoff (>= 1; see FaultEvent).
  /// Bit-identical to round_time(tau) when both factors are exactly 1.
  [[nodiscard]] double round_time(std::size_t tau, double compute_slowdown,
                                  double com_multiplier) const {
    validate();
    FEDVR_CHECK_MSG(tau >= 1, "round_time needs tau >= 1");
    FEDVR_CHECK_MSG(compute_slowdown >= 1.0,
                    "compute_slowdown must be >= 1, got " << compute_slowdown);
    FEDVR_CHECK_MSG(com_multiplier >= 1.0,
                    "com_multiplier must be >= 1, got " << com_multiplier);
    return d_com * com_multiplier +
           d_cmp * compute_slowdown * static_cast<double>(tau);
  }

  /// Model time for T rounds (paper eq. 19).
  [[nodiscard]] double total_time(std::size_t rounds, std::size_t tau) const {
    FEDVR_CHECK_MSG(rounds >= 1, "total_time needs rounds >= 1");
    return static_cast<double>(rounds) * round_time(tau);
  }

  /// The weight factor gamma = d_cmp / d_com.
  [[nodiscard]] double gamma() const {
    validate();
    return d_cmp / d_com;
  }

  /// Builds a model from gamma with d_com normalized to 1.
  [[nodiscard]] static TimingModel from_gamma(double gamma) {
    FEDVR_CHECK_MSG(gamma > 0.0, "gamma must be positive, got " << gamma);
    return TimingModel{.d_com = 1.0, .d_cmp = gamma};
  }
};

}  // namespace fedvr::fl
