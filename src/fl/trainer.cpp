#include "fl/trainer.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "check/check.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "opt/workspace.h"
#include "tensor/aligned.h"
#include "tensor/vecops.h"
#include "util/error.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fedvr::fl {

namespace {

// Flips the global obs collection flag for the duration of a profiled run
// and restores the previous state on exit (exceptions included).
class ScopedObsEnable {
 public:
  explicit ScopedObsEnable(bool enable)
      : active_(enable), previous_(enable ? obs::set_enabled(true) : false) {}
  ScopedObsEnable(const ScopedObsEnable&) = delete;
  ScopedObsEnable& operator=(const ScopedObsEnable&) = delete;
  ~ScopedObsEnable() {
    if (active_) obs::set_enabled(previous_);
  }

 private:
  bool active_;
  bool previous_;
};

// Adds the wall seconds of its scope to one phase of an observed run's
// fl::PhaseTimings; does nothing when observability is off.
class PhaseTimer {
 public:
  PhaseTimer(bool on, double& seconds)
      : seconds_(on ? &seconds : nullptr), start_ns_(on ? obs::now_ns() : 0) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() {
    if (seconds_ != nullptr) {
      *seconds_ += static_cast<double>(obs::now_ns() - start_ns_) / 1e9;
    }
  }

 private:
  double* seconds_;
  std::uint64_t start_ns_;
};

/// Algorithm 1 (FedProxVR, and FedAvg/FedProx/GD through the solver
/// options): each survivor runs opt::LocalSolver from the broadcast model
/// w̄^(s-1) and uploads its local model; the server validates the uploads
/// and aggregates the accepted ones through the fl::Aggregator seam (line
/// 12). Every round communicates.
class FedProxVRPolicy final : public RoundPolicy {
 public:
  FedProxVRPolicy(const data::Federation& fed, const TrainerOptions& options,
                  const opt::LocalSolver& solver)
      : fed_(fed),
        options_(options),
        solver_(solver),
        // A null option selects the weighted mean, whose reduce order and
        // arithmetic are bit-identical to the pre-seam trainer.
        aggregator_(options.aggregator
                        ? options.aggregator
                        : make_aggregator(AggregatorKind::kMean)),
        transforms_(options.comm.transforms_uplink()),
        // Stale replay re-sends a device's last upload; the cache is kept
        // only when the fault model can draw kStaleReplay at all.
        replay_possible_(options.faults.config().corruption_enabled() &&
                         options.faults.config().corrupt_stale_weight > 0.0) {}

  std::size_t begin(std::vector<double> w0) override {
    w_.assign(w0.begin(), w0.end());
    w_prev_.resize(w_.size());
    return 0;
  }

  StepResult local_step(const LocalStep& step) override {
    const std::size_t device = step.device;
    std::vector<double>& local = step.upload;
    if (step.event.corruption == CorruptionKind::kStaleReplay) {
      // The device free-rides: it re-sends whatever it uploaded last (or
      // echoes the broadcast model verbatim if it never uploaded) without
      // running the solver, so it contributes no fresh work.
      const auto it = replay_cache_.find(device);
      if (it != replay_cache_.end() && !it->second.empty()) {
        local.assign(it->second.begin(), it->second.end());
      } else {
        local.assign(w_.begin(), w_.end());
      }
      return {};
    }
    util::Rng rng = util::fork(options_.seed, device + 1, step.round,
                               util::stream::kSampling);
    // On-demand shard materialization (data/federation.h): an in-memory
    // federation returns its stored shard, a virtual one generates into
    // this device-local scratch.
    data::Dataset shard_scratch;
    const data::Dataset& shard = fed_.train(device, shard_scratch);
    opt::SolverWorkspace& ws = opt::thread_workspace();
    const auto result = solver_.solve(shard, w_, rng, ws, local);
    StepResult out{.grad_evals = result.sample_gradient_evals,
                   .iterations = result.iterations_run};
    // θ exists only where the solver computed its diagnostics; any other
    // solve leaves it "not measured".
    if (solver_.options().compute_diagnostics) {
      out.theta = result.measured_theta;
    }
    if (transforms_) {
      // Uplink the update delta through the comm seam (error feedback,
      // compression, wire encode/decode); the server reconstructs anchor +
      // decoded delta. Compressor calls outside comm::Channel are a lint
      // error (compression-in-seam).
      opt::SolverWorkspace::Vector& delta = ws.delta;
      delta.resize(w_.size());
      tensor::sub(local, w_, delta);
      util::Rng comm_rng = util::fork(options_.seed, device + 1, step.round,
                                      util::stream::kComm);
      out.uplink_bytes = step.channel.uplink(device, delta, comm_rng);
      tensor::copy(w_, local);
      tensor::axpy(1.0, delta, local);
    }
    corrupt(step, local);
    return out;
  }

  ServerUpdate server_update(const ServerRound& round) override {
    if (replay_possible_) {
      // Remember what each device just sent (post-corruption bytes) so a
      // later kStaleReplay round re-sends exactly that.
      for (const std::size_t k : round.survivors) {
        if (round.events[k].corruption != CorruptionKind::kStaleReplay) {
          replay_cache_[round.participants[k]].assign(
              round.uploads[k].begin(), round.uploads[k].end());
        }
      }
    }
    // Server-side defense, then line 12 through the pluggable seam. The
    // validation is ALWAYS-ON — plain function calls, not FEDVR_CHECKS-gated
    // macros — because a production server must reject a poisoned update,
    // not assert on it: one NaN in the weighted average corrupts every
    // later round. w̄^(s-1) is the aggregation anchor and the norm-bound
    // reference.
    tensor::copy(w_, w_prev_);
    // reserve() ahead of the loops, for as many slots as the round has
    // participants: capacity carries over, so once the first round has
    // sized these buffers no push_back reallocates.
    const std::size_t slots = round.participants.size();
    accepted_.clear();
    accepted_.reserve(slots);
    rejected_.clear();
    rejected_.reserve(slots);
    for (const std::size_t k : round.survivors) {
      const std::vector<double>& local = round.uploads[k];
      FEDVR_CHECK_SHAPE(local.size(), w_.size());
      bool ok = !options_.defense.reject_non_finite || check::all_finite(local);
      if (ok && options_.defense.update_norm_bound > 0.0) {
        const double bound = options_.defense.update_norm_bound;
        // NaN distances compare false, so a non-finite update that slipped
        // past a disabled finiteness check still fails here.
        ok = tensor::squared_distance(local, w_prev_) <= bound * bound;
      }
      if (ok) {
        accepted_.push_back(k);
      } else {
        rejected_.push_back(k);
      }
    }
    // Aggregate the accepted updates, ascending device order. A round with
    // nothing accepted keeps w̄^(s-1) unchanged.
    if (!accepted_.empty()) {
      update_views_.clear();
      update_views_.reserve(slots);
      update_weights_.clear();
      update_weights_.reserve(slots);
      for (const std::size_t k : accepted_) {
        update_views_.emplace_back(round.uploads[k]);
        update_weights_.push_back(fed_.weight(round.participants[k]));
      }
      aggregator_->aggregate(w_prev_, update_views_, update_weights_, w_);
      // Belt and braces on top of the defense layer: with reject_non_finite
      // force-disabled and a non-robust aggregator, fail at the round that
      // aggregated the poison.
      FEDVR_CHECK_FINITE(w_, "aggregated global model");
    }
    // Every scheduled participant received this round's broadcast.
    return {.broadcast = round.participants.size(), .rejected = rejected_};
  }

  std::span<const double> eval_point() override { return w_; }

 private:
  /// Corruption mangles the transmitted bytes, so it applies after
  /// compression. Deterministic per (seed, device, round): the kind was
  /// fixed by the fault draw and the mangling reads only device-local
  /// state, so corrupted traces stay pool-size-independent.
  void corrupt(const LocalStep& step, std::vector<double>& local) const {
    switch (step.event.corruption) {
      case CorruptionKind::kNanInject: {
        // Sparse deterministic poison: coordinate (device + s) mod dim,
        // then every 64th after it, alternating NaN and +Inf.
        bool use_nan = true;
        for (std::size_t j = (step.device + step.round) % local.size();
             j < local.size(); j += 64) {
          local[j] = use_nan ? std::numeric_limits<double>::quiet_NaN()
                             : std::numeric_limits<double>::infinity();
          use_nan = !use_nan;
        }
        break;
      }
      case CorruptionKind::kSignFlip:
        // w̄ - δ, i.e. 2·w̄ - w_n: the update pushes the wrong way.
        tensor::scal(-1.0, local);
        tensor::axpy(2.0, w_, local);
        break;
      case CorruptionKind::kScale: {
        // w̄ + f·δ, i.e. f·w_n + (1-f)·w̄: a magnitude explosion (or
        // collapse) along the honest direction.
        const double f = options_.faults.config().corrupt_scale_factor;
        tensor::scal(f, local);
        tensor::axpy(1.0 - f, w_, local);
        break;
      }
      case CorruptionKind::kNone:
      case CorruptionKind::kStaleReplay:
        break;  // replay never reaches the solver
    }
  }

  const data::Federation& fed_;
  const TrainerOptions& options_;
  const opt::LocalSolver& solver_;
  std::shared_ptr<const Aggregator> aggregator_;
  bool transforms_;
  bool replay_possible_;
  // The global model w̄^(s) and, during the server update, w̄^(s-1): every
  // solve's anchor and the aggregation's operands, on cache lines.
  tensor::AlignedVector<double> w_;
  tensor::AlignedVector<double> w_prev_;
  // The last update each device actually sent, keyed by device id. Written
  // only in the serial server update; local steps only read it.
  std::unordered_map<std::size_t, std::vector<double>> replay_cache_;
  // Server-update scratch, capacity kept across rounds.
  std::vector<std::size_t> accepted_;
  std::vector<std::size_t> rejected_;
  std::vector<std::span<const double>> update_views_;
  std::vector<double> update_weights_;
};

/// One engine run: everything the stages read and write, from the starting
/// model to the last trace row. Round buffers are keyed by participant
/// slot (an index into `participants`), never by device id, and keep their
/// capacity across rounds — a steady-state round allocates nothing here.
struct RunState {
  RunState(const Trainer& trainer_in, const data::Federation& fed_in,
           std::size_t dim, RoundPolicy& policy_in, std::size_t tau_in)
      : trainer(trainer_in),
        options(trainer_in.options()),
        fed(fed_in),
        policy(policy_in),
        tau(tau_in),
        obs_on(options.observability.enabled),
        channel(options.comm, fed_in.num_devices(), dim) {}

  void select(std::size_t s);
  void schedule_round();
  void local_work();
  void server_update();
  void account();
  bool record(std::size_t s);
  TrainingTrace finish();

  const Trainer& trainer;
  const TrainerOptions& options;
  const data::Federation& fed;
  RoundPolicy& policy;
  const std::size_t tau;  // local iterations eq. 19 charges per round
  const bool obs_on;
  // The device<->server link (src/comm): every upload flows through it and
  // all byte accounting is measured from serialized comm::Message sizes.
  // Per-run state (error-feedback residuals) lives here, keyed by device.
  comm::Channel channel;
  // Observed runs only: cumulative wall seconds per phase, and the device
  // solves' wall nanoseconds and inner iterations (the measured d_cmp),
  // which concurrent solves add to.
  PhaseTimings phases;
  std::atomic<std::uint64_t> solve_ns{0};
  std::atomic<std::uint64_t> solve_iterations{0};
  util::Stopwatch wall;
  TrainingTrace trace;
  /// The cumulative counters every recorded row carries, plus this round's
  /// realized time; record() stamps a copy.
  RoundMetrics totals;
  // Defense state keyed by device id (a sampled run only ever touches the
  // devices that participate): strike counters and the last round each
  // device stays quarantined. Only looked up, never iterated.
  std::unordered_map<std::size_t, std::size_t> strikes;
  std::unordered_map<std::size_t, std::size_t> quarantined_until;

  // ---- this round ----
  std::size_t round = 0;  // also the number of rounds run so far
  bool communicates = true;
  std::vector<std::size_t> participants;  // ascending device ids
  std::vector<FaultEvent> events;         // slot-keyed
  std::vector<std::size_t> survivors;     // slots whose upload arrives in time
  std::vector<std::size_t> working;       // slots that take a local step
  std::vector<std::size_t> uplinkers;     // survivor devices, for prepare()
  std::vector<std::vector<double>> uploads;  // slot-keyed
  std::vector<StepResult> steps;             // slot-keyed
  ServerUpdate update;
};

/// Stage 1: this round's participants, ascending — all N, or m of them
/// drawn by Floyd's sampler in O(m) — minus quarantined devices.
void RunState::select(std::size_t s) {
  round = s;
  const std::size_t num_devices = fed.num_devices();
  if (options.devices_per_round && *options.devices_per_round < num_devices) {
    util::Rng select_rng =
        util::fork(options.seed, 0, s, util::stream::kSelection);
    select_rng.sample_subset_sorted(num_devices, *options.devices_per_round,
                                    participants);
  } else {
    participants.resize(num_devices);
    std::iota(participants.begin(), participants.end(), 0);
  }
  // Quarantined devices are not scheduled at all: no broadcast, no compute,
  // no uplink. Filtered AFTER the selection draw so enabling quarantine
  // never perturbs the kSelection RNG stream.
  if (options.defense.quarantine_enabled()) {
    std::erase_if(participants, [&](std::size_t device) {
      const auto it = quarantined_until.find(device);
      if (it == quarantined_until.end() || it->second < s) return false;
      ++totals.quarantined_device_rounds;
      OBS_SPAN("round.defense.quarantined");
      FEDVR_OBS_COUNT("fl.defense.quarantined_device_rounds", 1);
      return true;
    });
  }
}

/// Stage 2: the round as a discrete-event schedule, in one pass over the
/// participants, ascending. Fault events are a pure function of (seed,
/// device, round) — bit-identical across pool sizes — and completion
/// timestamps are model time, so deadline misses, the survivors, the
/// working slots and the realized round time are all known before any
/// device runs. The fault counters are charged in the same pass.
void RunState::schedule_round() {
  communicates = policy.communicates(round);
  const FaultModel& faults = options.faults;
  const bool faults_on = faults.enabled();
  // Rounds that do not communicate have no deadline; +∞ stands for none.
  const double deadline = communicates && options.round_deadline
                              ? *options.round_deadline
                              : std::numeric_limits<double>::infinity();
  // When the server stops waiting: the last non-crashed arrival, capped at
  // the deadline; 0 when nothing reports.
  double round_time = 0.0;
  events.assign(participants.size(), FaultEvent{});
  // reserve() ahead of the loop: the push_backs below never reallocate
  // once round capacity is warm.
  survivors.clear();
  survivors.reserve(participants.size());
  working.clear();
  working.reserve(participants.size());
  for (std::size_t k = 0; k < participants.size(); ++k) {
    const std::size_t device = participants[k];
    FaultEvent& event = events[k];
    if (faults_on) event = faults.sample(options.seed, device, round);
    if (!communicates) {
      // Nothing is sent, so no transmission fault can fire.
      event.uplink_retries = 0;
      event.uplink_failed = false;
      event.corruption = CorruptionKind::kNone;
    }
    if (event.dropped) {
      // A crash is detected immediately (connection loss): the device
      // computes nothing, transmits nothing and holds up nothing.
      ++totals.dropped_devices;
      OBS_SPAN("round.fault.dropout");
      FEDVR_OBS_COUNT("fl.faults.dropout", 1);
      continue;
    }
    TimingModel timing = options.per_device_timing.empty()
                             ? options.timing
                             : options.per_device_timing[device];
    if (options.comm.byte_timing) {
      // d_com from actual serialized bytes: the link model splits the
      // analytic d_com into latency + bandwidth calibrated so a dense
      // float64 exchange still costs exactly d_com.
      timing.d_com = channel.link_round_time(timing);
    }
    // eq. 19 per device: d_com·mult + d_cmp·slowdown·τ; a round that does
    // not communicate charges the compute term only.
    const double completion =
        communicates
            ? timing.round_time(
                  tau, event.slowdown,
                  event.com_multiplier(faults.config().retry_backoff))
            : timing.d_cmp * event.slowdown * static_cast<double>(tau);
    // A completion exactly at the deadline is on time. The server stops
    // waiting at the deadline, however late the device would have been.
    const bool missed = completion > deadline;
    round_time = std::max(round_time, std::min(completion, deadline));
    const bool delivered = !event.uplink_failed && !missed;
    if (event.straggler) {
      ++totals.straggler_devices;
      OBS_SPAN("round.fault.straggler");
      FEDVR_OBS_COUNT("fl.faults.straggler", 1);
    }
    if (event.uplink_retries > 0) {
      totals.uplink_retries += event.uplink_retries;
      OBS_SPAN("round.fault.uplink_retry");
      FEDVR_OBS_COUNT("fl.faults.uplink_retries", event.uplink_retries);
    }
    if (missed) {
      ++totals.deadline_misses;
      OBS_SPAN("round.fault.deadline_miss");
      FEDVR_OBS_COUNT("fl.faults.deadline_misses", 1);
    }
    if (event.uplink_failed) {
      OBS_SPAN("round.fault.uplink_failed");
      FEDVR_OBS_COUNT("fl.faults.uplink_failed", 1);
    }
    if (!delivered) {
      // Computed and transmitted, never aggregated: undelivered, not
      // "dropped" — dropped counts crashes only (CSV schema v2).
      ++totals.undelivered_updates;
    } else {
      survivors.push_back(k);
      if (event.corrupted()) {
        // Counted per delivered update: how many corrupted updates the
        // server actually had to survive.
        ++totals.corrupted_updates;
        OBS_SPAN("round.fault.corrupt");
        FEDVR_OBS_COUNT("fl.faults.corrupted_updates", 1);
      }
    }
    // The survivors take a local step, and every non-crashed participant
    // does when the policy steps undelivered ones too.
    if (delivered || policy.steps_undelivered()) working.push_back(k);
  }
  totals.realized_round_time = round_time;
}

/// Stage 3: every working slot's local step, device-parallel.
void RunState::local_work() {
  uploads.resize(participants.size());
  steps.assign(participants.size(), StepResult{});
  if (communicates && options.comm.error_feedback) {
    // Serial registration of this round's uplinkers' error-feedback slots:
    // the parallel section below must never mutate keyed channel state, and
    // registering lazily there under a mutex cost fleet_sampled 15% more
    // peak RSS (likely the long-lived residuals landing in the workers'
    // malloc arenas, between each round's transient frames and shards).
    uplinkers.clear();
    uplinkers.reserve(participants.size());
    for (const std::size_t k : survivors) {
      uplinkers.push_back(participants[k]);
    }
    channel.prepare(uplinkers);
  }
  auto run_slot = [&](std::size_t i) {
    const std::size_t k = working[i];
    const std::size_t device = participants[k];
    OBS_SPAN("device.solve");
    const std::uint64_t start = obs_on ? obs::now_ns() : 0;
    steps[k] = policy.local_step(LocalStep{
        .round = round,
        .device = device,
        .event = events[k],
        .uploads = communicates &&
                   std::binary_search(survivors.begin(), survivors.end(), k),
        .channel = channel,
        .upload = uploads[k]});
    if (obs_on && steps[k].iterations > 0) {
      solve_ns += obs::now_ns() - start;
      solve_iterations += steps[k].iterations;
    }
  };
  if (options.parallel && util::ThreadPool::global().size() > 1) {
    util::ThreadPool::global().parallel_for(0, working.size(), run_slot);
  } else {
    for (std::size_t i = 0; i < working.size(); ++i) run_slot(i);
  }
}

/// Stage 4: the policy's server update on a communicating round, then the
/// defense bookkeeping for what it refused.
void RunState::server_update() {
  update = ServerUpdate{};
  if (!communicates) return;
  update = policy.server_update(ServerRound{.round = round,
                                            .participants = participants,
                                            .events = events,
                                            .survivors = survivors,
                                            .uploads = uploads});
  for (const std::size_t k : update.rejected) {
    const std::size_t device = participants[k];
    ++totals.rejected_updates;
    OBS_SPAN("round.defense.reject");
    FEDVR_OBS_COUNT("fl.defense.rejected_updates", 1);
    if (options.defense.quarantine_enabled() &&
        ++strikes[device] >= options.defense.quarantine_strikes) {
      // Quarantine starts next round; the strike counter resets so a
      // repeat offender re-earns its next quarantine from zero.
      quarantined_until[device] = round + options.defense.quarantine_rounds;
      strikes[device] = 0;
      FEDVR_OBS_COUNT("fl.defense.quarantines", 1);
    }
  }
}

/// Stage 5: model time, gradient evaluations and wire bytes.
void RunState::account() {
  // The round costs model time until the server stops waiting: the last
  // non-crashed arrival, capped at the deadline.
  totals.model_time += totals.realized_round_time;
  for (const std::size_t k : working) {
    totals.sample_grad_evals += steps[k].grad_evals;
  }
  totals.sample_grad_evals += update.grad_evals;
  if (!communicates) return;
  // Wire accounting from serialized message sizes: one dense model frame
  // per device the server broadcast to, plus one (possibly compressed)
  // update frame per transmission of every non-crashed participant — lost
  // attempts and late arrivals still crossed the wire. Slots that uplinked
  // through the channel are charged their realized frame size;
  // transmissions whose payload was never materialized (lost attempts,
  // stale replays, skipped encodes) are charged the a-priori size.
  totals.downlink_bytes += update.broadcast * channel.downlink_wire_bytes();
  const std::size_t up_bytes_apriori = channel.uplink_wire_bytes();
  for (std::size_t k = 0; k < participants.size(); ++k) {
    if (events[k].dropped) continue;
    const std::size_t realized = steps[k].uplink_bytes;
    totals.uplink_bytes += events[k].uplink_attempts() *
                           (realized > 0 ? realized : up_bytes_apriori);
  }
}

/// Stage 6: one trace row at the policy's evaluation point. Returns true
/// once the target accuracy is reached.
bool RunState::record(std::size_t s) {
  RoundMetrics m = totals;
  m.round = s;
  {
    const PhaseTimer timer(obs_on, phases.eval);
    OBS_SPAN("round.eval");
    const std::span<const double> w = policy.eval_point();
    m.train_loss = trainer.global_loss(w);
    m.test_accuracy = trainer.test_accuracy(w);
    if (options.eval_grad_norm) m.grad_norm_sq = trainer.global_grad_norm_sq(w);
    // Determinism audit: two runs with the same seed must produce
    // bit-identical parameters, hence equal hashes, at every recorded row.
    m.param_hash = check::hash_span(w);
  }
  m.comm_bytes = m.uplink_bytes + m.downlink_bytes;
  m.wall_seconds = wall.seconds();
  if (obs_on) m.measured = phases;
  // The mean θ over this round's solves that measured one; -1 when none did.
  double theta_sum = 0.0;
  std::size_t theta_count = 0;
  for (const std::size_t k : working) {
    if (steps[k].theta >= 0.0) {
      // Predicate-filtered diagnostic mean, ascending slot order;
      // trace-only, never fed back into the model.
      // lint:allow(fp-reduction-in-seam) trace-only diagnostic mean
      theta_sum += steps[k].theta;
      ++theta_count;
    }
  }
  m.mean_local_theta =
      theta_count > 0 ? theta_sum / static_cast<double>(theta_count) : -1.0;
  trace.rounds.push_back(m);
  FEDVR_LOG_DEBUG << trace.algorithm << " round " << s << " loss "
                  << m.train_loss << " acc " << m.test_accuracy;
  return options.target_accuracy &&
         m.test_accuracy >= *options.target_accuracy;
}

TrainingTrace RunState::finish() {
  const std::span<const double> w = policy.eval_point();
  trace.final_parameters.assign(w.begin(), w.end());
  trace.final_param_hash = check::hash_span(trace.final_parameters);
  if (obs_on) {
    // The measured eq. 19 delays, from the rounds run (none when the run
    // stopped at round 0). Eval is diagnostics, not round time, so d_com
    // counts only the broadcast and aggregate phases.
    if (round > 0) {
      const std::uint64_t iterations = solve_iterations.load();
      trace.measured_timing = MeasuredTiming{
          .d_com = (phases.broadcast + phases.aggregate) /
                   static_cast<double>(round),
          .d_cmp = iterations > 0
                       ? static_cast<double>(solve_ns.load()) / 1e9 /
                             static_cast<double>(iterations)
                       : 0.0};
    }
    const ObservabilityOptions& o = options.observability;
    if (!o.chrome_trace_path.empty()) {
      obs::write_chrome_trace_file(o.chrome_trace_path);
    }
    if (!o.metrics_jsonl_path.empty()) {
      std::ofstream out(o.metrics_jsonl_path);
      FEDVR_CHECK_MSG(out.good(), "cannot open '" << o.metrics_jsonl_path
                                                  << "' for writing");
      obs::Registry::global().snapshot().write_jsonl(out);
      obs::write_span_summary_jsonl(out);
    }
  }
  return std::move(trace);
}

}  // namespace

Trainer::Trainer(std::shared_ptr<const nn::Model> model,
                 const data::FederatedDataset& fed, TrainerOptions options)
    : Trainer(std::move(model),
              std::make_shared<const data::InMemoryFederation>(fed),
              std::move(options)) {}

Trainer::Trainer(std::shared_ptr<const nn::Model> model,
                 std::shared_ptr<const data::Federation> fed,
                 TrainerOptions options)
    : model_(std::move(model)), fed_(std::move(fed)), options_(options) {
  // All constructor validation is ALWAYS-ON (util/error.h macros, not the
  // FEDVR_CHECKS-gated layer): a Release/no-checks build must reject a
  // malformed configuration loudly, not train garbage. Tested under
  // check::set_enabled(false).
  FEDVR_CHECK(model_ != nullptr);
  FEDVR_CHECK(fed_ != nullptr);
  FEDVR_CHECK_MSG(fed_->num_devices() > 0, "need at least one device");
  FEDVR_CHECK_MSG(options_.rounds >= 1, "rounds must be >= 1, got 0");
  FEDVR_CHECK_MSG(options_.eval_every >= 1,
                  "eval_every must be >= 1 (0 would evaluate nothing and "
                  "divide by zero on the eval cadence)");
  if (options_.devices_per_round) {
    FEDVR_CHECK_MSG(*options_.devices_per_round >= 1 &&
                        *options_.devices_per_round <= fed_->num_devices(),
                    "devices_per_round must be in [1, "
                        << fed_->num_devices() << "], got "
                        << *options_.devices_per_round);
  }
  options_.defense.validate();
  options_.comm.validate();
  FEDVR_CHECK_MSG(options_.per_device_timing.empty() ||
                      options_.per_device_timing.size() == fed_->num_devices(),
                  "per_device_timing needs one entry per device");
  // Fail fast on malformed timing models (always-on validation — a release
  // build must reject d_com <= 0 here, not silently produce garbage time).
  options_.timing.validate();
  for (const auto& tm : options_.per_device_timing) tm.validate();
  if (options_.round_deadline) {
    FEDVR_CHECK_MSG(*options_.round_deadline > 0.0,
                    "round_deadline must be positive, got "
                        << *options_.round_deadline);
  }
  // Shard-size validation goes through device_train_size (O(1) per device,
  // no materialization): an empty shard would divide by zero in the local
  // solver's sampling and produce a zero aggregation weight.
  for (std::size_t n = 0; n < fed_->num_devices(); ++n) {
    FEDVR_CHECK_MSG(fed_->device_train_size(n) > 0,
                    "device " << n << " has no training data");
  }
}

namespace {

// The eval's per-call buffers, kept by the calling thread so a warm eval
// allocates nothing (the idiom of nn::identity_indices and nn's eval
// scratch). A fan-out's chunks write them through references taken on the
// calling thread, never through eval_buffers() on a worker.
struct EvalBuffers {
  std::vector<double> per_device;
  std::vector<double> weights;
  std::vector<std::size_t> predicted;
  std::vector<double> total;
  std::vector<double> scratch;
};

EvalBuffers& eval_buffers() {
  thread_local EvalBuffers buffers;
  return buffers;
}

}  // namespace

// The eval path dominates wall time at eval_every=1, so all three metrics
// fan out across the pool. Determinism across pool sizes holds because
// every floating-point reduction happens serially in ascending device (or
// chunk) order over per-device partials — only the independent per-device
// work is scheduled onto threads. Global metrics are inherently O(fleet):
// sampled large-fleet runs keep eval_every high (or rely on param hashes)
// instead of paying a million-shard materialization per round.

double Trainer::global_loss(std::span<const double> w) const {
  const std::size_t num_devices = fed_->num_devices();
  // Devices are evaluated in fixed waves, so the buffers hold one wave
  // however large the fleet. Each wave folds onto the running total
  // serially, in ascending device order: Σ_n p_n F_n keeps the bits of one
  // ascending loop over the whole fleet.
  constexpr std::size_t kWave = 4096;
  const std::size_t wave = std::min(kWave, num_devices);
  std::vector<double>& per_device = eval_buffers().per_device;
  std::vector<double>& weights = eval_buffers().weights;
  per_device.resize(wave);  // every wave overwrites its prefix
  weights.resize(wave);
  double total = 0.0;
  for (std::size_t base = 0; base < num_devices; base += wave) {
    const std::size_t count = std::min(wave, num_devices - base);
    util::ThreadPool::global().parallel_for(0, count, [&](std::size_t i) {
      data::Dataset scratch;
      per_device[i] = model_->full_loss(w, fed_->train(base + i, scratch));
      weights[i] = fed_->weight(base + i);
    });
    total = tensor::weighted_sum_onto(
        total, std::span<const double>(weights).first(count),
        std::span<const double>(per_device).first(count));
  }
  return total;
}

double Trainer::global_grad_norm_sq(std::span<const double> w) const {
  const std::size_t dim = model_->num_parameters();
  const std::size_t num_devices = fed_->num_devices();
  // Per-device gradients land in wave-local scratch (kWave * dim bounds the
  // footprint however many devices there are) and are folded into the total
  // serially, ascending by device index.
  constexpr std::size_t kWave = 4;
  const std::size_t wave = std::min(kWave, num_devices);
  std::vector<double>& total = eval_buffers().total;
  std::vector<double>& scratch = eval_buffers().scratch;
  total.assign(dim, 0.0);
  scratch.resize(wave * dim);  // full_gradient overwrites
  for (std::size_t base = 0; base < num_devices; base += wave) {
    const std::size_t count = std::min(wave, num_devices - base);
    util::ThreadPool::global().parallel_for(0, count, [&](std::size_t i) {
      data::Dataset ds_scratch;
      (void)model_->full_gradient(
          w, fed_->train(base + i, ds_scratch),
          std::span<double>(scratch).subspan(i * dim, dim));
    });
    for (std::size_t i = 0; i < count; ++i) {
      tensor::axpy(fed_->weight(base + i),
                   std::span<const double>(scratch).subspan(i * dim, dim),
                   total);
    }
  }
  return tensor::nrm2_squared(total);
}

double Trainer::test_accuracy(std::span<const double> w) const {
  const data::Dataset& pooled = fed_->pooled_test();
  FEDVR_CHECK(!pooled.empty());
  const std::size_t size = pooled.size();
  // Fixed-size chunks (never pool-sized) keep the per-sample forward-pass
  // batching identical across pool sizes; the correct-count reduction is
  // integer arithmetic, so it is order-independent anyway.
  constexpr std::size_t kChunk = 256;
  const std::size_t nchunks = (size + kChunk - 1) / kChunk;
  const std::span<const std::size_t> indices = nn::identity_indices(size);
  std::vector<std::size_t>& predicted = eval_buffers().predicted;
  predicted.resize(size);  // predict overwrites
  util::ThreadPool::global().parallel_for(0, nchunks, [&](std::size_t c) {
    const std::size_t lo = c * kChunk;
    const std::size_t len = std::min(kChunk, size - lo);
    model_->predict(w, pooled,
                    indices.subspan(lo, len),
                    std::span<std::size_t>(predicted).subspan(lo, len));
  });
  std::size_t correct = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (predicted[i] == static_cast<std::size_t>(pooled.label(i))) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(size);
}

TrainingTrace Trainer::run(const opt::LocalSolver& solver,
                           const std::string& name,
                           std::optional<std::vector<double>> w0) const {
  FedProxVRPolicy policy(*fed_, options_, solver);
  return run(policy, solver.options().tau, name, std::move(w0));
}

TrainingTrace Trainer::run(RoundPolicy& policy, std::size_t timing_tau,
                           const std::string& name,
                           std::optional<std::vector<double>> w0) const {
  if (w0.has_value()) {
    FEDVR_CHECK_MSG(w0->size() == model_->num_parameters(),
                    "w0 has " << w0->size() << " parameters, model needs "
                              << model_->num_parameters());
  } else {
    util::Rng init_rng =
        util::fork(options_.seed, 0, 0, util::stream::kInit);
    w0 = model_->initial_parameters(init_rng);
  }
  const ScopedObsEnable obs_guard(options_.observability.enabled);
  RunState run(*this, *fed_, model_->num_parameters(), policy, timing_tau);
  run.trace.algorithm = name;
  run.totals.sample_grad_evals = policy.begin(std::move(*w0));

  // Early stop can trigger at round 0: a run whose starting model already
  // meets target_accuracy pays for no rounds at all.
  bool target_reached = options_.eval_initial && run.record(0);
  for (std::size_t s = 1; !target_reached && s <= options_.rounds; ++s) {
    OBS_SPAN("round");
    {
      const PhaseTimer timer(run.obs_on, run.phases.broadcast);
      OBS_SPAN("round.broadcast");
      run.select(s);
      run.schedule_round();
    }
    {
      const PhaseTimer timer(run.obs_on, run.phases.local_solve);
      OBS_SPAN("round.local_solve");
      run.local_work();
    }
    {
      const PhaseTimer timer(run.obs_on, run.phases.aggregate);
      OBS_SPAN("round.aggregate");
      run.server_update();
      run.account();
    }
    if (s % options_.eval_every == 0 ||
        (s == options_.rounds && options_.eval_final)) {
      target_reached = run.record(s);
    }
  }
  return run.finish();
}

}  // namespace fedvr::fl
