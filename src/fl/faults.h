// Deterministic fault injection for the federated engine.
//
// The paper's Algorithm 1 assumes every device returns every round; real
// deployments (FedProx, Li et al.; probabilistically activated agents,
// Rostami & Kia) see crashes, stragglers, and flaky uplinks. A FaultModel
// samples one FaultEvent per (device, round):
//
//   * crash/dropout — the device never reports this round and is excluded
//     from line-12 aggregation (the survivors are reweighted to sum to 1);
//   * straggler     — the device computes `slowdown` times slower, which
//     multiplies the d_cmp term of its round time (timing_model.h);
//   * uplink loss   — each uplink transmission is lost independently with
//     `uplink_loss_prob`; the device retries up to `uplink_max_retries`
//     times with geometric backoff, each retry charging extra d_com
//     (FaultEvent::com_multiplier). A device that exhausts its retries is
//     excluded from aggregation like a crash, but the round still waits
//     for its full (retried) arrival;
//   * corruption    — the delivered update is garbage: NaN/Inf-poisoned,
//     sign-flipped, magnitude-scaled, or a stale replay of the device's
//     previous upload. Fired per round with `corrupt_prob`, or every round
//     by the `byzantine_fraction` of permanently adversarial devices (a
//     per-(seed, device) draw, stable across rounds). Corruption is a
//     transmission-layer fault: the server must detect and reject it
//     (fl/aggregation.h), not trust the update.
//
// Determinism contract: sample() is a pure function of (seed, device,
// round) — the RNG is forked by coordinates exactly like the solver's
// minibatch stream (util::stream::kFaults) — so the realized fault sequence
// is bit-identical however devices are scheduled onto threads and for any
// thread-pool size.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fedvr::fl {

/// How a corrupted update is mangled before upload.
enum class CorruptionKind : std::uint8_t {
  kNone = 0,
  kNanInject,   // NaN / +Inf written into a deterministic coordinate stride
  kSignFlip,    // the update delta w_n - w̄^(s-1) is negated
  kScale,       // the delta is multiplied by corrupt_scale_factor
  kStaleReplay,  // the device re-sends its previously uploaded model
};

struct FaultModelConfig {
  /// P(device crashes this round). The device does not report at all.
  double dropout_prob = 0.0;
  /// P(device computes `straggler_slowdown` times slower this round).
  double straggler_prob = 0.0;
  /// Compute-delay multiplier applied when the straggler event fires (>= 1).
  double straggler_slowdown = 4.0;
  /// P(one uplink transmission is lost). Each attempt is independent.
  double uplink_loss_prob = 0.0;
  /// Retransmissions a device may attempt after the first lost uplink.
  std::size_t uplink_max_retries = 3;
  /// Geometric backoff base: retry i (1-based) charges an extra
  /// retry_backoff^i * d_com of communication delay (>= 1).
  double retry_backoff = 2.0;

  /// P(an otherwise-honest device's delivered update is corrupted this
  /// round) — transient bit rot, a buggy client build, a flaky NIC.
  double corrupt_prob = 0.0;
  /// Fraction of the fleet that is permanently Byzantine. Whether a device
  /// is Byzantine is a pure per-(seed, device) draw — stable across rounds,
  /// so the same devices attack every round (the regime quarantine exists
  /// for). Byzantine devices corrupt every update they deliver.
  double byzantine_fraction = 0.0;
  /// Relative weights of the corruption kinds drawn when corruption fires
  /// (normalized internally; must not all be zero if corruption can fire).
  double corrupt_nan_weight = 1.0;
  double corrupt_sign_weight = 1.0;
  double corrupt_scale_weight = 1.0;
  double corrupt_stale_weight = 1.0;
  /// Delta multiplier used by CorruptionKind::kScale (> 0, finite; large
  /// models a magnitude explosion, < 1 a vanishing update).
  double corrupt_scale_factor = 100.0;

  [[nodiscard]] bool corruption_enabled() const {
    return corrupt_prob > 0.0 || byzantine_fraction > 0.0;
  }
};

/// The realized fault outcome for one (device, round) pair.
struct FaultEvent {
  bool dropped = false;      // crashed: no uplink, no time charged
  bool straggler = false;    // slowdown fired this round
  double slowdown = 1.0;     // compute-delay multiplier (>= 1)
  std::size_t uplink_retries = 0;  // retransmissions after lost uplinks
  bool uplink_failed = false;      // every attempt lost: update discarded
  /// How (and whether) this round's delivered update is mangled. Sampled
  /// only for devices that deliver: a crashed or uplink-exhausted device
  /// has nothing to corrupt.
  CorruptionKind corruption = CorruptionKind::kNone;
  /// Device-level adversary flag (stable across rounds for a given seed).
  bool byzantine = false;

  [[nodiscard]] bool corrupted() const {
    return corruption != CorruptionKind::kNone;
  }

  /// Uplink transmissions actually sent (first attempt + retries); used for
  /// communication-byte accounting. Zero only conceptually for a crash —
  /// callers skip crashed devices before charging uplink bytes.
  [[nodiscard]] std::size_t uplink_attempts() const {
    return uplink_retries + 1;
  }

  /// Communication-delay multiplier from uplink retries with geometric
  /// backoff: 1 + sum_{i=1..retries} backoff^i.
  [[nodiscard]] double com_multiplier(double backoff) const {
    double mult = 1.0;
    double step = 1.0;
    for (std::size_t i = 0; i < uplink_retries; ++i) {
      step *= backoff;
      mult += step;
    }
    return mult;
  }

  /// True when the device's update reaches the server (it may still miss a
  /// round deadline — the trainer layers that check on top).
  [[nodiscard]] bool delivers_update() const {
    return !dropped && !uplink_failed;
  }
};

/// Samples per-device, per-round fault events. Default-constructed models
/// are disabled: sample() always returns the no-fault event and the trainer
/// takes the exact pre-fault code path (traces are bit-identical to runs
/// that predate fault injection).
class FaultModel {
 public:
  /// Disabled model (all probabilities zero).
  FaultModel() = default;

  /// Validates the configuration (always-on: probabilities in [0, 1],
  /// straggler_slowdown >= 1, retry_backoff >= 1, corruption weights
  /// nonnegative with a positive sum when corruption can fire).
  explicit FaultModel(FaultModelConfig config);

  [[nodiscard]] const FaultModelConfig& config() const { return config_; }

  /// True when any fault has nonzero probability.
  [[nodiscard]] bool enabled() const {
    return config_.dropout_prob > 0.0 || config_.straggler_prob > 0.0 ||
           config_.uplink_loss_prob > 0.0 || config_.corruption_enabled();
  }

  /// The fault event for (device, round) under master seed `seed`. Pure:
  /// same coordinates, same event, regardless of call order or thread.
  /// Rounds are 1-based, matching the trainer's global iteration s.
  /// Corruption draws happen after (and conditionally on) the legacy
  /// crash/straggler/uplink draws, so enabling corruption never perturbs a
  /// pre-existing fault sequence.
  [[nodiscard]] FaultEvent sample(std::uint64_t seed, std::size_t device,
                                  std::size_t round) const;

  /// Whether `device` is permanently Byzantine under `seed`: a pure
  /// per-(seed, device) draw against byzantine_fraction, independent of the
  /// round (uses the round-0 slot of the fault stream, which per-round
  /// sampling never touches — trainer rounds are 1-based).
  [[nodiscard]] bool is_byzantine(std::uint64_t seed,
                                  std::size_t device) const;

 private:
  FaultModelConfig config_{};
};

}  // namespace fedvr::fl
