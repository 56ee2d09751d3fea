// The discrete-event round schedule: a round as timestamps, not a barrier.
//
// The synchronous engines never actually wait on a clock — a "round" is
// model time, and every per-device completion time is a pure function of
// (timing model, fault event). This class makes that explicit: callers fill
// one ParticipantOutcome per scheduled participant (device id, fault-
// adjusted completion timestamp, crashed / undelivered flags), and build()
// derives everything the server's event loop needs —
//
//   * deadline misses (completion after the cutoff),
//   * the arrival order (updates sorted by completion time — the order the
//     server would drain its event queue),
//   * the survivor set (participants whose update reaches the server),
//   * the realized round time (when the server stops waiting: the last
//     non-crashed arrival, capped at the deadline).
//
// Determinism: outcomes are filled in ascending-device slot order from pure
// per-(seed, device, round) inputs, arrivals sort with a (time, slot) key,
// and survivors keep ascending slot order — nothing here depends on thread
// scheduling. Capacity is reused across rounds (reset() keeps buffers), so
// a steady-state round allocates nothing and costs O(participants), however
// large the fleet is.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace fedvr::fl {

/// One scheduled participant's round, from the server's point of view.
struct ParticipantOutcome {
  std::size_t device = 0;
  /// Fault-adjusted completion timestamp (d_com·mult + d_cmp·τ·slowdown in
  /// the trainer's units). Meaningless when crashed.
  double completion_time = 0.0;
  /// Crash/dropout: computed nothing, transmitted nothing, holds up nothing.
  bool crashed = false;
  /// Transmitted but never arrived (uplink exhaustion): charged time and
  /// bytes, excluded from aggregation.
  bool undelivered = false;
  /// Set by build(): completed after the round deadline.
  bool missed_deadline = false;

  /// The update reaches the server in time (valid after build()).
  [[nodiscard]] bool delivered() const {
    return !crashed && !undelivered && !missed_deadline;
  }
};

/// One update hitting the server, in arrival order.
struct ArrivalEvent {
  double time = 0.0;
  std::size_t slot = 0;  // index into outcomes()
};

class RoundSchedule {
 public:
  /// Starts a new round with `slots` participants and returns the outcome
  /// array for the caller to fill (device, completion_time, crashed,
  /// undelivered — in ascending device order). Reuses capacity.
  std::vector<ParticipantOutcome>& reset(std::size_t slots);

  /// Derives deadline misses, arrival order, survivors, and the realized
  /// round time from the filled outcomes. Call once per reset().
  void build(std::optional<double> deadline);

  [[nodiscard]] const std::vector<ParticipantOutcome>& outcomes() const {
    return outcomes_;
  }
  [[nodiscard]] const ParticipantOutcome& outcome(std::size_t k) const {
    return outcomes_[k];
  }

  /// Non-crashed participants' completions, sorted by (time, slot) — the
  /// server's event queue for this round. Includes undelivered and
  /// deadline-missed transmissions (they crossed the wire).
  [[nodiscard]] std::span<const ArrivalEvent> arrivals() const {
    return arrivals_;
  }

  /// Slots whose update reaches the server in time (not crashed, not
  /// undelivered, not past the deadline), ascending — the set line-12
  /// aggregation averages over.
  [[nodiscard]] std::span<const std::size_t> survivors() const {
    return survivors_;
  }

  /// When the server stops waiting: max over non-crashed participants of
  /// min(completion, deadline); 0 when nothing reports.
  [[nodiscard]] double realized_round_time() const {
    return realized_round_time_;
  }

 private:
  std::vector<ParticipantOutcome> outcomes_;
  std::vector<ArrivalEvent> arrivals_;
  std::vector<std::size_t> survivors_;
  double realized_round_time_ = 0.0;
};

}  // namespace fedvr::fl
