// Per-round metrics and the training trace written by every experiment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace fedvr::fl {

/// Measured per-phase wall-clock seconds, cumulative since round 1 (same
/// convention as RoundMetrics::wall_seconds). Populated by the trainer when
/// TrainerOptions::observability is enabled.
struct PhaseTimings {
  double broadcast = 0.0;    // participant selection + model distribution
  double local_solve = 0.0;  // device-parallel local solver execution
  double aggregate = 0.0;    // weighted averaging + cost accounting
  double eval = 0.0;         // global loss / accuracy evaluation

  [[nodiscard]] double sum() const {
    return broadcast + local_solve + aggregate + eval;
  }
};

/// Measured counterpart of the §4.3 analytic TimingModel, estimated from
/// observed rounds: d_com ≈ mean broadcast+aggregate seconds per round,
/// d_cmp ≈ mean device solve seconds per inner iteration. Lets benches
/// compare eq. 19's predicted round time against what actually happened.
struct MeasuredTiming {
  double d_com = 0.0;
  double d_cmp = 0.0;

  [[nodiscard]] double round_time(std::size_t tau) const {
    return d_com + d_cmp * static_cast<double>(tau);
  }
};

struct RoundMetrics {
  std::size_t round = 0;          // global iteration s (1-based)
  double train_loss = 0.0;        // global objective F̄(w̄^(s)) (eq. 2)
  double test_accuracy = 0.0;     // pooled-test accuracy
  double grad_norm_sq = -1.0;     // ||∇F̄(w̄^(s))||² when evaluated, else -1
  double model_time = 0.0;        // cumulative analytic time (eq. 19)
  double wall_seconds = 0.0;      // cumulative wall-clock
  double mean_local_theta = -1.0; // measured θ across devices (diagnostics)

  // Cost accounting (cumulative since round 1). Bytes are measured from
  // serialized comm::Message sizes (header + index section + payload), not
  // analytic estimates: uplink counts every transmission that crossed the
  // wire (retries and lost attempts included), downlink counts one dense
  // model frame per device the server broadcast to.
  std::size_t comm_bytes = 0;        // uplink_bytes + downlink_bytes
  std::size_t uplink_bytes = 0;      // device -> server
  std::size_t downlink_bytes = 0;    // server -> device
  std::size_t sample_grad_evals = 0; // per-sample gradient evaluations

  // Fault accounting (cumulative since round 1; all zero when the run's
  // FaultModel is disabled and no round_deadline is set). dropped_devices
  // and undelivered_updates were one conflated counter before the v2 CSV
  // schema (DESIGN.md §11): "dropped" now means crashes ONLY.
  std::size_t dropped_devices = 0;   // crashed participants (computed
                                     // nothing, transmitted nothing)
  std::size_t undelivered_updates = 0; // participants that computed and
                                       // transmitted but whose update never
                                       // reached aggregation: deadline miss
                                       // or uplink exhaustion (counted once
                                       // when both apply)
  std::size_t straggler_devices = 0; // straggler slowdown events
  std::size_t uplink_retries = 0;    // uplink retransmissions
  std::size_t deadline_misses = 0;   // deadline-missed devices (a subset of
                                     // undelivered_updates)

  // Corruption & server-defense accounting (cumulative since round 1; all
  // zero when no update corruption fires and no defense rejects anything):
  std::size_t corrupted_updates = 0;   // delivered updates the fault layer
                                       // corrupted (NaN/sign/scale/stale)
  std::size_t rejected_updates = 0;    // updates rejected by server-side
                                       // validation before aggregation
  std::size_t quarantined_device_rounds = 0; // device-rounds skipped because
                                             // the device was quarantined
                                             // (one device quarantined for 5
                                             // rounds counts 5)

  /// Realized model time of THIS round (not cumulative), as the round
  /// engine's schedule stage computes it: the last non-crashed arrival,
  /// capped at round_deadline when one is set. Equals the analytic
  /// per-round eq. 19 time when faults are off.
  double realized_round_time = 0.0;

  /// FNV-1a hash of w̄^(s) (check::hash_span). Equal-seed runs must agree
  /// round-for-round; a divergence pinpoints the first nondeterministic one.
  std::uint64_t param_hash = 0;

  /// Measured phase timings (cumulative); present only when the trainer ran
  /// with observability enabled.
  std::optional<PhaseTimings> measured;
};

struct TrainingTrace {
  std::string algorithm;
  std::vector<RoundMetrics> rounds;
  /// The global model w̄^(T) after the last round: the last eval row's model.
  std::vector<double> final_parameters;
  /// FNV-1a hash of final_parameters — the determinism-audit fingerprint.
  std::uint64_t final_param_hash = 0;

  /// Measured timing-model estimate (observability runs only): compare
  /// measured_timing->round_time(tau) against TimingModel::round_time(tau).
  std::optional<MeasuredTiming> measured_timing;

  [[nodiscard]] bool empty() const { return rounds.empty(); }
  [[nodiscard]] const RoundMetrics& back() const { return rounds.back(); }

  /// Best test accuracy over the trace and the first round that achieved it.
  [[nodiscard]] std::pair<double, std::size_t> best_accuracy() const;

  // NaN policy for the loss statistics below: a NaN round loss is treated
  // as +infinity (maximally bad) — it can never be "the minimum", never
  // counts as reaching a target, and forces the maximum to +inf — and any
  // NaN anywhere in the trace makes diverged() true. NaN comparisons are
  // all false, so without this policy a NaN-poisoned trace sails through
  // every detector (the worst possible trace reads as "fine").

  /// First round whose train loss drops to `target` or below; nullopt if
  /// never reached. Used for time-to-target comparisons. NaN rounds never
  /// qualify.
  [[nodiscard]] std::optional<std::size_t> first_round_below_loss(
      double target) const;

  /// Minimum training loss over the trace (NaN rounds count as +inf).
  [[nodiscard]] double min_train_loss() const;

  /// Maximum training loss over the trace (spikes reveal instability; any
  /// NaN round makes this +inf).
  [[nodiscard]] double max_train_loss() const;

  /// True when the loss curve exploded: any NaN loss anywhere in the trace,
  /// or a tail that grew past `factor` times the starting loss — the
  /// divergence detector used by the Fig. 4 mu-sweep.
  [[nodiscard]] bool diverged(double factor = 2.0) const;

  /// Writes all rounds to a CSV at `path`.
  void write_csv(const std::string& path) const;
};

}  // namespace fedvr::fl
