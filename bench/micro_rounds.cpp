// End-to-end round throughput for the federated engines: full training
// rounds on the paper's Synthetic federation with a logistic-regression
// model, reported as device activations/s and local updates/s, plus the
// heap allocations per round: every operator new the process makes during
// the timed runs, counted by the replacement operator new this binary
// links (tests/testing/alloc_counter.cpp). Rounds run their devices on the
// thread pool, so every benchmark here is timed (and its rates computed) in
// wall time.
//
// Snapshot with tools/bench_json.py --binary build/bench/micro_rounds
// --out BENCH_rounds.json.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>

#include "common/micro_main.h"
#include "core/proxskip.h"
#include "data/federation.h"
#include "data/synthetic.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "opt/local_solver.h"
#include "testing/alloc_counter.h"

namespace {

using namespace fedvr;

constexpr std::size_t kDevices = 12;
constexpr std::size_t kDim = 60;       // FedProx Synthetic feature dim
constexpr std::size_t kClasses = 10;
constexpr std::size_t kTau = 10;       // inner iterations per round
constexpr std::size_t kBatch = 8;
constexpr std::size_t kRounds = 5;     // global rounds per timed run

data::FederatedDataset synthetic_fed() {
  data::SyntheticConfig cfg;
  cfg.num_devices = kDevices;
  cfg.dim = kDim;
  cfg.num_classes = kClasses;
  cfg.min_samples = 40;
  cfg.max_samples = 160;
  cfg.seed = 5;
  return data::make_synthetic(cfg);
}

opt::LocalSolverOptions solver_options() {
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kSvrg;
  o.tau = kTau;
  o.eta = 0.05;
  o.mu = 0.1;
  o.batch_size = kBatch;
  return o;
}

// Shared skeleton: one warm run primes the threads' kernel scratch and the
// per-thread solver workspaces outside the timing loop, then the heap
// allocations across the timed runs are charged per round. The count is
// read right after the loop, before the counter map's own insertions.
void run_trainer_bench(benchmark::State& state, const fl::TrainerOptions& topts,
                       std::size_t updates_per_activation) {
  const auto fed = synthetic_fed();
  const auto model = nn::make_logistic_regression(kDim, kClasses);
  const fl::Trainer trainer(model, fed, topts);
  const opt::LocalSolver solver(model, solver_options());
  (void)trainer.run(solver, "warm");
  const std::uint64_t heap_before = testing::heap_allocations();
  std::size_t runs = 0;
  for (auto _ : state) {
    const auto trace = trainer.run(solver, "bench");
    benchmark::DoNotOptimize(trace.final_param_hash);
    ++runs;
  }
  const std::uint64_t allocs = testing::heap_allocations() - heap_before;
  const double rounds = static_cast<double>(runs * kRounds);
  const double activations = rounds * static_cast<double>(kDevices);
  state.counters["devices_per_second"] =
      benchmark::Counter(activations, benchmark::Counter::kIsRate);
  state.counters["updates_per_second"] = benchmark::Counter(
      activations * static_cast<double>(updates_per_activation),
      benchmark::Counter::kIsRate);
  state.counters["allocs_per_round"] = static_cast<double>(allocs) / rounds;
}

// FedProxVR (Algorithm 1, kSvrg): the paper's main engine.
void BM_RoundFedProxVR(benchmark::State& state) {
  fl::TrainerOptions topts;
  topts.rounds = kRounds;
  topts.seed = 3;
  topts.eval_every = kRounds;  // one metric pass per run, not per round
  run_trainer_bench(state, topts, kTau);
}
BENCHMARK(BM_RoundFedProxVR)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Same engine with the fault stack on: crashes, stragglers, lossy uplinks
// and corruption, exercising survivor reweighting and server-side
// validation on every round.
void BM_RoundFedProxVRFaults(benchmark::State& state) {
  fl::TrainerOptions topts;
  topts.rounds = kRounds;
  topts.seed = 3;
  topts.eval_every = kRounds;
  fl::FaultModelConfig faults;
  faults.dropout_prob = 0.1;
  faults.straggler_prob = 0.2;
  faults.uplink_loss_prob = 0.05;
  faults.corrupt_prob = 0.05;
  topts.faults = fl::FaultModel(faults);
  run_trainer_bench(state, topts, kTau);
}
BENCHMARK(BM_RoundFedProxVRFaults)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Event-driven sampled rounds on a large virtual fleet: N = 10⁵ devices,
// m = 64 sampled participants per round, shards materialized on demand
// through data::VirtualFederation. The fleet never fits a slab — the
// per-round cost is O(m·dim), so devices_per_second here measures *sampled
// activations* (the fleet size only pays at construction, outside the
// timing loop). Global metric passes are O(N) and disabled.
void BM_RoundSampledLargeFleet(benchmark::State& state) {
  constexpr std::size_t kFleet = 100000;
  constexpr std::size_t kSampled = 64;
  data::SyntheticConfig cfg;
  cfg.num_devices = kFleet;
  cfg.dim = kDim;
  cfg.num_classes = kClasses;
  cfg.min_samples = 40;
  cfg.max_samples = 160;
  cfg.seed = 5;
  const auto fleet = std::make_shared<data::VirtualFederation>(
      data::make_synthetic_virtual(cfg));
  const auto model = nn::make_logistic_regression(kDim, kClasses);
  fl::TrainerOptions topts;
  topts.rounds = kRounds;
  topts.seed = 3;
  topts.devices_per_round = kSampled;
  topts.eval_every = kRounds + 1;  // no O(N) metric pass in the loop
  topts.eval_final = false;
  const fl::Trainer trainer(model, fleet, topts);
  const opt::LocalSolver solver(model, solver_options());
  (void)trainer.run(solver, "warm");
  const std::uint64_t heap_before = testing::heap_allocations();
  std::size_t runs = 0;
  for (auto _ : state) {
    const auto trace = trainer.run(solver, "bench");
    benchmark::DoNotOptimize(trace.final_param_hash);
    ++runs;
  }
  const std::uint64_t allocs = testing::heap_allocations() - heap_before;
  const double rounds = static_cast<double>(runs * kRounds);
  const double activations = rounds * static_cast<double>(kSampled);
  state.counters["devices_per_second"] =
      benchmark::Counter(activations, benchmark::Counter::kIsRate);
  state.counters["updates_per_second"] = benchmark::Counter(
      activations * static_cast<double>(kTau), benchmark::Counter::kIsRate);
  state.counters["allocs_per_round"] = static_cast<double>(allocs) / rounds;
}
BENCHMARK(BM_RoundSampledLargeFleet)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ProxSkip-VR (eq. 19): one local SVRG step per device per iteration, with
// ~skip_prob of the iterations communicating. An "activation" here is one
// device-iteration; updates == activations (tau = 1).
void BM_RoundProxSkipVR(benchmark::State& state) {
  const auto fed = synthetic_fed();
  const auto model = nn::make_logistic_regression(kDim, kClasses);
  core::ProxSkipVROptions opts;
  opts.iterations = kRounds * kTau;  // comparable local-step budget
  opts.seed = 3;
  opts.step_size = 0.05;
  opts.skip_prob = 0.2;
  opts.batch_size = kBatch;
  opts.eval_every = opts.iterations;
  (void)core::run_proxskip_vr(model, fed, opts, "warm");
  const std::uint64_t heap_before = testing::heap_allocations();
  std::size_t runs = 0;
  for (auto _ : state) {
    const auto trace = core::run_proxskip_vr(model, fed, opts, "bench");
    benchmark::DoNotOptimize(trace.final_param_hash);
    ++runs;
  }
  const std::uint64_t allocs = testing::heap_allocations() - heap_before;
  const double iters = static_cast<double>(runs * opts.iterations);
  const double activations = iters * static_cast<double>(kDevices);
  state.counters["devices_per_second"] =
      benchmark::Counter(activations, benchmark::Counter::kIsRate);
  state.counters["updates_per_second"] =
      benchmark::Counter(activations, benchmark::Counter::kIsRate);
  state.counters["allocs_per_round"] = static_cast<double>(allocs) / iters;
}
BENCHMARK(BM_RoundProxSkipVR)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return fedvr::bench::run_micro_benchmarks(argc, argv);
}
