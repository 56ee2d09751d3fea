// The round engine: Algorithm 1's outer loop, run as a discrete-event
// simulation over the round's participants, for every algorithm in the
// repo. Trainer::run is the only round loop; each global round s passes
// through six named stages over one run state:
//
//   1. select     — all N devices, or m of them drawn by Floyd's algorithm
//                   in O(m); quarantined devices are not scheduled;
//   2. schedule   — one pass over the participants: each one's fault
//                   event and eq. 19 completion timestamp, hence deadline
//                   misses, the survivor set and the realized round time,
//                   all before any device runs; the fault counters are
//                   charged in the same pass;
//   3. local work — every working participant's local step, in parallel
//                   on the thread pool ("for n in N do in parallel"), its
//                   upload sent through the run's comm::Channel;
//   4. server update — what the server does with the round's uploads;
//   5. account    — model time, uplink/downlink bytes from the serialized
//                   frames, and gradient evaluations;
//   6. record     — metrics at the policy's evaluation point, appended to
//                   the trace on eval rounds.
//
// The algorithm-specific parts sit behind a RoundPolicy: the local step and
// its upload, the server update (and how many devices its model is
// broadcast to), the point metrics and final_parameters are taken at, and
// whether round s communicates at all. The run(LocalSolver) overload is
// the FedProxVR policy — opt::LocalSolver locally, the server defense plus
// the fl::Aggregator line-12 rule on the server, every round communicating.
// ProxSkip-VR (core/proxskip.h) is a second policy over the same engine.
//
// Every per-participant buffer (uploads, step results, error-feedback
// residuals) is keyed by round slot or device, never sized by the fleet:
// the engine's own round state is O(m·dim) at any fleet size.
//
// Determinism: the per-device, per-round RNG is forked from the master seed
// by (device, round) coordinates, and every cross-device reduction runs in
// a fixed (ascending-device) order, so traces are bit-identical however
// devices are scheduled onto threads.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "comm/channel.h"
#include "data/dataset.h"
#include "data/federation.h"
#include "fl/aggregation.h"
#include "fl/faults.h"
#include "fl/metrics.h"
#include "fl/timing_model.h"
#include "nn/model.h"
#include "opt/local_solver.h"
#include "util/thread_pool.h"

namespace fedvr::fl {

/// Run-scoped observability (fedvr::obs). Off by default: the null sink
/// costs one relaxed atomic load per instrumentation site. When enabled,
/// the run records phase/device trace spans, pool and solver counters, and
/// fills RoundMetrics::measured + TrainingTrace::measured_timing from the
/// engine's phase clocks: a few scalars per run, whatever the fleet size.
/// Collection is process-global while the run is active (the previous
/// enable state is restored when run() returns).
struct ObservabilityOptions {
  bool enabled = false;
  /// When non-empty, a Chrome trace_event JSON file written at the end of
  /// run() — open in chrome://tracing or https://ui.perfetto.dev.
  std::string chrome_trace_path;
  /// When non-empty, a JSONL file with the metrics-registry snapshot plus
  /// per-span-name summaries, written at the end of run().
  std::string metrics_jsonl_path;
};

struct TrainerOptions {
  std::size_t rounds = 100;       // T global iterations
  std::uint64_t seed = 1;
  TimingModel timing;
  std::size_t eval_every = 1;     // metric cadence (rounds)
  bool eval_initial = false;      // record a round-0 entry at w̄^(0)
  /// Force an eval entry on the last round even when eval_every does not
  /// land on it (the historical behavior, and the default). Global metrics
  /// are O(fleet) — a sampled million-device smoke run turns this off and
  /// relies purely on param hashes.
  bool eval_final = true;
  bool eval_grad_norm = false;    // ||∇F̄||² costs a full pass; opt-in
  /// Devices participating per round; nullopt = all (the paper's setting).
  std::optional<std::size_t> devices_per_round;
  /// Stop early once pooled-test accuracy reaches this value (if set).
  std::optional<double> target_accuracy;
  /// The device<->server link (src/comm): uplink compression with optional
  /// error feedback, wire dtypes (float64/float32/int8), and byte-derived
  /// link timing. Every update crosses this seam; with default options the
  /// channel is pure accounting and the arithmetic is bit-identical to the
  /// pre-comm engine.
  comm::ChannelOptions comm;
  /// Optional per-device timing models (heterogeneous hardware): when
  /// non-empty (one per device), each participant's completion time uses
  /// its own device's model instead of options.timing, and the round lasts
  /// until the last non-crashed arrival, capped at round_deadline.
  std::vector<TimingModel> per_device_timing;
  /// Deterministic fault injection (crashes, stragglers, lossy uplinks,
  /// update corruption). Disabled by default; see fl/faults.h. Devices that
  /// deliver no update are dropped from line-12 aggregation and the
  /// survivors' weights are renormalized to sum to 1 (a zero-survivor round
  /// keeps w̄^(s-1)).
  FaultModel faults;
  /// The line-12 aggregation rule. Null selects the survivor-reweighted
  /// weighted mean — arithmetic bit-identical to the pre-seam trainer.
  /// Robust alternatives: make_aggregator(AggregatorKind::kMedian /
  /// kTrimmedMean / kNormClippedMean).
  std::shared_ptr<const Aggregator> aggregator;
  /// Server-side update validation and quarantine (fl/aggregation.h).
  /// Validation is always-on and independent of FEDVR_CHECKS: non-finite
  /// (and, when configured, norm-bound-violating) updates are rejected
  /// before they reach the aggregator, repeat offenders are quarantined.
  DefenseOptions defense;
  /// Optional synchronous-round deadline in model-time units: participants
  /// whose fault-adjusted round time exceeds it are excluded from
  /// aggregation, and the server charges at most the deadline per round
  /// (it stops waiting once the deadline passes). Rounds that do not
  /// communicate (RoundPolicy::communicates) have no deadline.
  std::optional<double> round_deadline;
  /// Parallel device execution. Deterministic either way.
  bool parallel = true;
  /// Phase and device-solve timing + metrics collection (fedvr::obs).
  ObservabilityOptions observability;
};

/// One working participant's local step, as the engine hands it to a
/// RoundPolicy.
struct LocalStep {
  std::size_t round = 0;  // s, 1-based
  std::size_t device = 0;
  const FaultEvent& event;  // this round's fault draw for the device
  /// The step's upload reaches the server this round: send it through
  /// `channel` into `upload`. False for a participant whose upload is lost
  /// or late, and on a round that does not communicate.
  bool uploads = false;
  comm::Channel& channel;
  std::vector<double>& upload;  // the slot's buffer the server update reads
};

/// What a local step cost and sent.
struct StepResult {
  std::size_t uplink_bytes = 0;  // realized frame size; 0 = a-priori size
  std::size_t grad_evals = 0;    // per-sample gradient evaluations
  std::size_t iterations = 0;    // local iterations run (measured d_cmp)
  double theta = -1.0;           // measured θ (eq. 11); < 0 = not measured
};

/// A communicating round's uploads as the server sees them. All spans are
/// slot-keyed (slot k is participants[k]); survivors are the ascending
/// slots whose upload arrived.
struct ServerRound {
  std::size_t round = 0;
  std::span<const std::size_t> participants;
  std::span<const FaultEvent> events;
  std::span<const std::size_t> survivors;
  std::span<const std::vector<double>> uploads;
};

/// What a server update did.
struct ServerUpdate {
  std::size_t broadcast = 0;   // devices the new model is sent to
  std::size_t grad_evals = 0;  // gradient evaluations it triggered
  /// Slots whose upload the server refused. The engine counts them and
  /// quarantines repeat offenders (TrainerOptions::defense).
  std::span<const std::size_t> rejected;
};

/// The algorithm-specific half of a round. The engine owns selection, the
/// fault and timing schedule, the channel, the accounting and the trace; a
/// policy owns the model state, what a device computes, and what the server
/// does with the uploads.
class RoundPolicy {
 public:
  virtual ~RoundPolicy() = default;

  /// Takes the starting model w̄⁰; returns the gradient evaluations spent
  /// getting ready, which count from the round-0 row on.
  virtual std::size_t begin(std::vector<double> w0) = 0;

  /// Whether round s communicates. A round that does not is local work
  /// only: no uplink (so no uplink fault fires), no server update, no
  /// bytes, and each participant charges d_cmp·slowdown·τ.
  [[nodiscard]] virtual bool communicates(std::size_t /*round*/) const {
    return true;
  }

  /// Whether a participant whose upload will not arrive still takes its
  /// local step (its state carries over); otherwise only the survivors run.
  [[nodiscard]] virtual bool steps_undelivered() const { return false; }

  /// One participant's local step. Called concurrently for distinct
  /// devices: touch only that device's state.
  virtual StepResult local_step(const LocalStep& step) = 0;

  /// The server's update from a communicating round's uploads.
  virtual ServerUpdate server_update(const ServerRound& round) = 0;

  /// The model metrics and final_parameters are taken at. Valid until the
  /// next call into the policy.
  virtual std::span<const double> eval_point() = 0;
};

class Trainer {
 public:
  /// The trainer borrows the dataset; it must outlive the trainer.
  /// (Wraps `fed` in a data::InMemoryFederation.)
  Trainer(std::shared_ptr<const nn::Model> model,
          const data::FederatedDataset& fed, TrainerOptions options);

  /// Federation-backed construction — the million-device path. With a
  /// data::VirtualFederation, device shards are materialized on demand
  /// inside each participant's solve, so a round of m sampled participants
  /// costs O(m·dim) memory regardless of the fleet size.
  Trainer(std::shared_ptr<const nn::Model> model,
          std::shared_ptr<const data::Federation> fed, TrainerOptions options);

  /// Runs Algorithm 1 with `solver` on every device (the FedProxVR policy)
  /// for options().rounds global rounds starting from a fresh
  /// initialization (or `w0` if provided). `name` labels the trace.
  [[nodiscard]] TrainingTrace run(
      const opt::LocalSolver& solver, const std::string& name,
      std::optional<std::vector<double>> w0 = std::nullopt) const;

  /// The round engine: runs `policy` for options().rounds rounds from w0
  /// (or a fresh initialization). Each participant's eq. 19 time charges
  /// `timing_tau` local iterations.
  [[nodiscard]] TrainingTrace run(
      RoundPolicy& policy, std::size_t timing_tau, const std::string& name,
      std::optional<std::vector<double>> w0 = std::nullopt) const;

  /// The global objective F̄(w) = sum_n (D_n/D) F_n(w) (eq. 2).
  [[nodiscard]] double global_loss(std::span<const double> w) const;

  /// ||∇F̄(w)||², the paper's stationarity gap (eq. 12).
  [[nodiscard]] double global_grad_norm_sq(std::span<const double> w) const;

  /// Accuracy on the pooled test set.
  [[nodiscard]] double test_accuracy(std::span<const double> w) const;

  [[nodiscard]] const TrainerOptions& options() const { return options_; }

 private:
  std::shared_ptr<const nn::Model> model_;
  std::shared_ptr<const data::Federation> fed_;
  TrainerOptions options_;
};

}  // namespace fedvr::fl
