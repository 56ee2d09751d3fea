// The benchmark's workloads. Each one generates every input from the
// command-line seed, then runs one complete training run per call to run():
// a closed loop on the global thread pool, one round after the previous one
// finished.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "comm/channel.h"
#include "data/dataset.h"
#include "data/federation.h"
#include "decorators.h"
#include "fl/metrics.h"
#include "nn/model.h"
#include "opt/local_solver.h"

namespace perfbench {

/// Wall seconds of each set-up step (std::chrono::steady_clock).
struct SetupTimes {
  double data_s = 0.0;        // dataset / federation generation
  double smoothness_s = 0.0;  // theory::estimate_smoothness (0 when unused)
  double total_s = 0.0;       // everything up to the start of round 1
};

/// One complete training run.
struct RunResult {
  double wall_s = 0.0;             // run() wall time, steady_clock
  std::size_t rounds = 0;          // rounds (ProxSkip-VR: iterations) run
  bool met_target = false;         // target accuracy (or floor) met
  std::size_t target_round = 0;    // round of the first eval meeting it
  double time_to_target_s = 0.0;   // wall seconds from start to that eval
  double final_test_accuracy = 0.0;
  double final_train_loss = 0.0;
  bool diverged = false;
  std::uint64_t final_param_hash = 0;
  std::size_t uplink_bytes = 0;    // cumulative serialized uplink bytes
  std::uint64_t heap_allocs = 0;   // operator new calls during the run
  std::uint64_t arena_events = 0;  // tensor::arena_heap_events() delta
  std::optional<fedvr::fl::PhaseTimings> phases;  // traced Trainer runs
};

/// What the layer probes need to run at a workload's own shapes.
struct ProbeInputs {
  std::shared_ptr<const fedvr::nn::Model> model;
  const fedvr::data::Dataset* shard = nullptr;  // device 0's training shard
  fedvr::opt::LocalSolverOptions solver;
  fedvr::comm::ChannelOptions channel;
  std::size_t num_devices = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the workload's inputs from `seed` and builds the trainer.
  /// Replaces whatever a previous call built.
  virtual SetupTimes setup(std::uint64_t seed) = 0;

  /// One training run from a fresh initialization. With `stats` set the run
  /// goes through the forwarding decorators and the library's own
  /// observability; the result must hash-match an untraced run.
  [[nodiscard]] virtual RunResult run(LayerStats* stats) = 0;

  [[nodiscard]] virtual ProbeInputs probe_inputs() const = 0;

  /// Shard materializations on demand during the last traced run.
  [[nodiscard]] virtual std::uint64_t materializations() const { return 0; }
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name);

/// A small configuration of the named workload for the self-tests: same
/// code paths, a fraction of the work.
[[nodiscard]] std::unique_ptr<Workload> make_tiny_workload(
    std::string_view name);

/// core::run_proxskip_vr, the only path through core/proxskip.cpp: 128
/// devices, p = 0.2, top-k+EF/q8, the examples/comm_efficiency beta, tau, mu
/// and B. It is not a workload: its rate followed the host's load phases by
/// up to 1.5x, past any bound. Every traced run probes it instead. `tiny` is
/// the self-tests' size.
[[nodiscard]] std::unique_ptr<Workload> make_proxskip(bool tiny = false);

}  // namespace perfbench
