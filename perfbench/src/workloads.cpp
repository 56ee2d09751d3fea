#include "workloads.h"

#include <cmath>

#include "comm/compression.h"
#include "core/algorithms.h"
#include "core/proxskip.h"
#include "data/federated_split.h"
#include "data/procedural_images.h"
#include "fl/aggregation.h"
#include "fl/hierarchy.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "tensor/arena.h"
#include "theory/smoothness.h"
#include "util/stopwatch.h"

#include "alloc_counter.h"

namespace perfbench {
namespace {

using namespace fedvr;

/// Pools every device's training shard (the smoothness estimate's input).
data::Dataset pool_train(const data::FederatedDataset& fed) {
  data::Dataset pooled(fed.train.front().sample_shape(), 0,
                       fed.train.front().num_classes());
  for (const auto& d : fed.train) pooled.append(d);
  return pooled;
}

/// L at the zero starting point of the convex runs, for the paper's step
/// rule eta = 1/(beta L). At w = 0 the softmax Hessian depends on the data
/// alone, so the estimate (and with it the step) does not swing with a
/// random initialization. Charges its wall time to `t`.
double smoothness_at_zero(const nn::Model& model,
                          const data::FederatedDataset& fed,
                          std::uint64_t seed, SetupTimes& t) {
  const util::Stopwatch sw;
  const data::Dataset pooled = pool_train(fed);
  util::Rng rng(seed);
  const std::vector<double> zero(model.num_parameters(), 0.0);
  const double L = theory::estimate_smoothness(model, pooled, zero, rng);
  t.smoothness_s = sw.seconds();
  return L;
}

/// What a run must reach. The final eval must meet `accuracy_floor`. With a
/// `loss_target`, the target is the first eval whose train loss F̄ is at or
/// below it (the train loss falls smoothly and alike across seeds, where
/// the round a flattening accuracy curve crosses a threshold shifts with
/// test-set noise); without one, the target is the final eval itself.
struct Goal {
  double accuracy_floor = 0.0;
  std::optional<double> loss_target;
};

/// Fills the end-of-run fields of `r` from `trace`.
void read_trace(const fl::TrainingTrace& trace, const Goal& goal,
                RunResult& r) {
  r.final_param_hash = trace.final_param_hash;
  r.diverged = trace.diverged();
  if (trace.empty()) return;  // met_target stays false: a failed run
  const auto& last = trace.back();
  r.rounds = last.round;
  r.final_test_accuracy = last.test_accuracy;
  r.final_train_loss = last.train_loss;
  r.uplink_bytes = last.uplink_bytes;
  r.phases = last.measured;
  if (last.test_accuracy < goal.accuracy_floor) return;
  if (!goal.loss_target) {
    r.met_target = true;
    r.target_round = last.round;
    r.time_to_target_s = r.wall_s;
    return;
  }
  for (const auto& m : trace.rounds) {
    if (m.train_loss <= *goal.loss_target) {
      r.met_target = true;
      r.target_round = m.round;
      r.time_to_target_s = m.wall_seconds;  // steady_clock, from run start
      return;
    }
  }
}

/// Times one training run and reads its trace.
template <typename Run>
RunResult timed_run(Run&& run, const Goal& goal) {
  RunResult r;
  const std::uint64_t allocs = heap_allocations();
  const std::uint64_t arena = tensor::arena_heap_events();
  const util::Stopwatch sw;
  const fl::TrainingTrace trace = run();
  r.wall_s = sw.seconds();
  r.heap_allocs = heap_allocations() - allocs;
  r.arena_events = tensor::arena_heap_events() - arena;
  read_trace(trace, goal, r);
  return r;
}

/// Synthetic(alpha = 0, beta = 1) with ONE labelling model shared by every
/// device: device k draws a feature mean shift B_k ~ N(0, beta), features
/// x ~ N(v_k, Sigma) with v_k,j ~ N(B_k, 1) and Sigma_jj = j^-1.2, and
/// labels y = argmax(W x + b) from the shared (W, b). Li et al.'s recipe
/// gives every device its own (W_k, b_k); no global model can fit those, so
/// pooled accuracy and loss swing with the seed (near chance on a 10^5-device
/// fleet) and could not serve as correctness checks. (W, b) is the task and
/// is fixed, as the class shapes of the procedural images are; the seed
/// draws everything else. Shards are pure functions of the device index, so
/// a virtual fleet costs O(1) memory.
struct SharedSynthetic {
  static constexpr std::size_t kDim = 60;
  static constexpr std::size_t kClasses = 10;
  static constexpr double kBeta = 1.0;
  static constexpr std::uint64_t kTaskSeed = 1;

  std::uint64_t seed = 1;
  std::vector<double> w;    // kClasses x kDim, row-major
  std::vector<double> b;    // kClasses
  std::vector<double> sd;   // sqrt(Sigma_jj)

  explicit SharedSynthetic(std::uint64_t s) : seed(s) {
    util::Rng rng = util::fork(kTaskSeed, 0, 3, util::stream::kData);
    for (std::size_t i = 0; i < kClasses * kDim; ++i) w.push_back(rng.normal());
    for (std::size_t i = 0; i < kClasses; ++i) b.push_back(rng.normal());
    for (std::size_t j = 0; j < kDim; ++j) {
      sd.push_back(std::sqrt(std::pow(static_cast<double>(j + 1), -1.2)));
    }
  }

  void generate(std::size_t device, std::size_t n, data::Dataset& out) const {
    util::Rng rng = util::fork(seed, device + 1, 0, util::stream::kData);
    const double shift = rng.normal(0.0, std::sqrt(kBeta));
    std::vector<double> v(kDim);
    for (double& vj : v) vj = rng.normal(shift, 1.0);
    out = data::Dataset(tensor::Shape({kDim}), n, kClasses);
    for (std::size_t i = 0; i < n; ++i) {
      auto x = out.mutable_sample(i);
      for (std::size_t j = 0; j < kDim; ++j) x[j] = rng.normal(v[j], sd[j]);
      int best = 0;
      double best_logit = 0.0;
      for (std::size_t c = 0; c < kClasses; ++c) {
        double logit = b[c];
        for (std::size_t j = 0; j < kDim; ++j) logit += w[c * kDim + j] * x[j];
        if (c == 0 || logit > best_logit) {
          best = static_cast<int>(c);
          best_logit = logit;
        }
      }
      out.set_label(i, best);
    }
  }
};

/// A workload driven by fl::Trainer (Algorithm 1).
class TrainerWorkload : public Workload {
 public:
  SetupTimes setup(std::uint64_t seed) override {
    const util::Stopwatch total;
    SetupTimes t;
    trainer_.reset();  // it borrows the data the old built_ owns
    built_ = build(seed, t);
    trainer_ = std::make_unique<fl::Trainer>(built_.model, built_.fed,
                                             built_.options);
    solver_ = std::make_unique<opt::LocalSolver>(built_.model, built_.solver);
    t.total_s = total.seconds();
    return t;
  }

  RunResult run(LayerStats* stats) override {
    if (stats == nullptr) return finish(*trainer_, *solver_);
    // The traced run: every public seam decorated, library obs on.
    auto model = std::make_shared<CountingModel>(built_.model, *stats);
    auto fed = std::make_shared<CountingFederation>(built_.fed, *stats);
    fl::TrainerOptions options = built_.options;
    options.aggregator = std::make_shared<CountingAggregator>(
        options.aggregator ? options.aggregator
                           : fl::make_aggregator(fl::AggregatorKind::kMean),
        *stats);
    if (options.comm.compressor) {
      options.comm.compressor = std::make_shared<CountingCompressor>(
          options.comm.compressor, *stats);
    }
    options.observability.enabled = true;
    const std::uint64_t materialized_before = virtual_materializations();
    const fl::Trainer trainer(model, fed, options);
    const opt::LocalSolver solver(model, built_.solver);
    RunResult r = finish(trainer, solver);
    last_materializations_ = virtual_materializations() - materialized_before;
    return r;
  }

  [[nodiscard]] ProbeInputs probe_inputs() const override {
    ProbeInputs p;
    p.model = built_.model;
    p.shard = &built_.fed->train(0, probe_scratch_);
    p.solver = built_.solver;
    p.channel = built_.options.comm;
    p.num_devices = built_.fed->num_devices();
    return p;
  }

  [[nodiscard]] std::uint64_t materializations() const override {
    return last_materializations_;
  }

 protected:
  struct Built {
    std::shared_ptr<const nn::Model> model;
    std::shared_ptr<const data::FederatedDataset> dataset;  // in-memory only
    std::shared_ptr<const data::VirtualFederation> fleet;   // virtual only
    std::shared_ptr<const data::Federation> fed;
    fl::TrainerOptions options;
    opt::LocalSolverOptions solver;
    std::optional<std::vector<double>> w0;  // nullopt: seeded random init
    Goal goal;
  };

  virtual Built build(std::uint64_t seed, SetupTimes& t) = 0;

 private:
  RunResult finish(const fl::Trainer& trainer,
                   const opt::LocalSolver& solver) const {
    return timed_run([&] { return trainer.run(solver, "perfbench", built_.w0); },
                     built_.goal);
  }

  std::uint64_t virtual_materializations() const {
    return built_.fleet ? built_.fleet->materializations() : 0;
  }

  Built built_;
  std::unique_ptr<fl::Trainer> trainer_;
  std::unique_ptr<opt::LocalSolver> solver_;
  mutable data::Dataset probe_scratch_;
  std::uint64_t last_materializations_ = 0;
};

// ---- convex_fig2 ----------------------------------------------------------

struct ConvexConfig {
  std::size_t devices = 20;
  std::size_t pool = 3000;
  std::size_t min_samples = 280;  // per device, train + test
  std::size_t max_samples = 360;
  std::size_t rounds = 40;
  double loss_target = 1.0;
  double accuracy_floor = 0.8;
};

class ConvexFig2 final : public TrainerWorkload {
 public:
  explicit ConvexFig2(ConvexConfig c) : c_(c) {}

 protected:
  Built build(std::uint64_t seed, SetupTimes& t) override {
    Built b;
    const util::Stopwatch data_sw;
    data::ProceduralImageConfig pc;
    pc.family = data::ImageFamily::kFashion;
    pc.side = 28;
    data::LabelShardConfig shard;
    shard.num_devices = c_.devices;
    shard.min_samples = c_.min_samples;
    shard.max_samples = c_.max_samples;
    shard.seed = seed;
    auto dataset = std::make_shared<data::FederatedDataset>(data::shard_by_label(
        data::make_procedural_pool(pc, c_.pool, seed), shard));
    t.data_s = data_sw.seconds();

    b.model = nn::make_logistic_regression(28 * 28, 10);
    core::HyperParams hp;  // Fig. 2(b)
    hp.beta = 7.0;
    hp.tau = 20;
    hp.mu = 0.1;
    hp.batch_size = 32;
    hp.smoothness_L = smoothness_at_zero(*b.model, *dataset, seed, t);
    b.solver = core::fedproxvr_svrg(hp).options;
    b.w0 = std::vector<double>(b.model->num_parameters(), 0.0);

    b.options.rounds = c_.rounds;
    b.options.seed = seed;
    b.options.eval_every = 1;
    b.goal = {.accuracy_floor = c_.accuracy_floor,
              .loss_target = c_.loss_target};
    b.fed = std::make_shared<data::InMemoryFederation>(*dataset);
    b.dataset = std::move(dataset);
    return b;
  }

 private:
  ConvexConfig c_;
};

// ---- fleet_sampled --------------------------------------------------------

struct FleetConfig {
  std::size_t fleet = 100000;
  std::size_t min_samples = 10;
  std::size_t max_samples = 40;
  std::size_t sampled = 64;
  std::size_t rounds = 300;
  std::size_t tau = 10;
  std::size_t batch = 8;
  double floor = 0.5;
};

class FleetSampled final : public TrainerWorkload {
 public:
  explicit FleetSampled(FleetConfig c) : c_(c) {}

 protected:
  Built build(std::uint64_t seed, SetupTimes& t) override {
    Built b;
    const util::Stopwatch data_sw;
    const auto source = std::make_shared<const SharedSynthetic>(seed);
    const FleetConfig c = c_;
    // Power-law-ish sizes: an independent lognormal mass per device squashed
    // into [min, max] (make_synthetic_virtual's recipe).
    const auto size_fn = [c, seed](std::size_t device) -> std::size_t {
      util::Rng rng = util::fork(seed, device + 1, 1, util::stream::kData);
      const double mass = rng.lognormal(0.0, 1.5);
      const double span = static_cast<double>(c.max_samples - c.min_samples);
      return c.min_samples + static_cast<std::size_t>(
                                 std::llround(mass / (mass + 1.0) * span));
    };
    const auto generator = [source](std::size_t device, std::size_t n,
                                    data::Dataset& out) {
      source->generate(device, n, out);
    };
    // Pooled test: 4 samples from each of 512 reserved devices past the
    // fleet's last index. Many devices, so that the accuracy averages over
    // the devices' feature shifts instead of riding on a few of them.
    data::Dataset pooled;
    for (std::size_t k = 0; k < 512; ++k) {
      data::Dataset part;
      source->generate(c.fleet + k, 4, part);
      if (k == 0) {
        pooled = std::move(part);
      } else {
        pooled.append(part);
      }
    }
    b.fleet = std::make_shared<data::VirtualFederation>(
        c.fleet, size_fn, generator, std::move(pooled));
    b.fed = b.fleet;
    t.data_s = data_sw.seconds();

    b.model = nn::make_logistic_regression(SharedSynthetic::kDim,
                                           SharedSynthetic::kClasses);
    b.solver.estimator = opt::Estimator::kSvrg;
    b.solver.tau = c.tau;
    b.solver.eta = 0.05;
    b.solver.mu = 0.1;
    b.solver.batch_size = c.batch;

    b.options.rounds = c.rounds;
    b.options.seed = seed;
    b.options.devices_per_round = c.sampled;
    b.options.eval_every = c.rounds;  // one O(fleet) eval, at the end
    fl::FaultModelConfig faults;
    faults.dropout_prob = 0.05;
    faults.straggler_prob = 0.1;
    faults.uplink_loss_prob = 0.05;
    faults.corrupt_prob = 0.02;
    faults.corrupt_sign_weight = 0.0;  // NaN corruption only: the server's
    faults.corrupt_scale_weight = 0.0;  // finiteness check rejects every one
    faults.corrupt_stale_weight = 0.0;
    b.options.faults = fl::FaultModel(faults);
    b.options.defense.quarantine_strikes = 2;
    b.options.aggregator = fl::make_tree_aggregator({.fanout = 8});
    b.options.comm.compressor = std::make_shared<comm::TopKCompressor>(0.1);
    b.options.comm.error_feedback = true;
    b.options.comm.uplink_dtype = comm::DType::kInt8Block;
    b.goal.accuracy_floor = c.floor;
    return b;
  }

 private:
  FleetConfig c_;
};

// ---- proxskip_comm --------------------------------------------------------

// Many small devices: with 32 devices the final loss swung 0.22-0.40
// across seeds with the draw of the devices' feature shifts; 128 average
// them out (0.43-0.46).
struct ProxSkipConfig {
  std::size_t devices = 128;
  std::size_t min_samples = 30;  // per device, train + test
  std::size_t max_samples = 60;
  std::size_t iterations = 600;
  double floor = 0.6;
};

class ProxSkipComm final : public Workload {
 public:
  explicit ProxSkipComm(ProxSkipConfig c) : c_(c) {}

  SetupTimes setup(std::uint64_t seed) override {
    const util::Stopwatch total;
    SetupTimes t;
    const util::Stopwatch data_sw;
    const SharedSynthetic source(seed);
    auto dataset = std::make_shared<data::FederatedDataset>();
    for (std::size_t k = 0; k < c_.devices; ++k) {
      util::Rng rng = util::fork(seed, k + 1, 2, util::stream::kData);
      data::Dataset all;
      source.generate(k, c_.min_samples + rng.below(c_.max_samples -
                                                     c_.min_samples + 1),
                      all);
      auto [train, test] = all.split(rng, 0.75);
      dataset->train.push_back(std::move(train));
      dataset->test.push_back(std::move(test));
    }
    dataset_ = std::move(dataset);
    t.data_s = data_sw.seconds();
    model_ = nn::make_logistic_regression(SharedSynthetic::kDim,
                                          SharedSynthetic::kClasses);
    core::HyperParams hp;  // the comm_efficiency example's beta/tau/mu/B
    hp.beta = 5.0;
    hp.tau = 5;
    hp.mu = 0.1;
    hp.batch_size = 8;
    hp.smoothness_L = smoothness_at_zero(*model_, *dataset_, seed, t);
    options_ = core::ProxSkipVROptions{};
    options_.iterations = c_.iterations;
    options_.seed = seed;
    options_.step_size = hp.eta();
    options_.skip_prob = 0.2;
    options_.batch_size = hp.batch_size;
    options_.eval_every = c_.iterations;  // the last iteration only
    options_.comm.compressor = std::make_shared<comm::TopKCompressor>(0.1);
    options_.comm.error_feedback = true;
    options_.comm.uplink_dtype = comm::DType::kInt8Block;
    options_.comm.byte_timing = true;
    // One iteration is a few ms of work split into device steps of tens of
    // microseconds. Fanned out to the pool, the per-iteration join measures
    // how fast the host reschedules vCPUs (rates swung 2x within minutes on
    // a shared 4-vCPU VM); serial iterations are bit-identical and measure the
    // engine itself.
    options_.parallel = false;
    options_.validate();
    t.total_s = total.seconds();
    return t;
  }

  RunResult run(LayerStats* stats) override {
    std::shared_ptr<const nn::Model> model = model_;
    core::ProxSkipVROptions options = options_;
    if (stats != nullptr) {
      // ProxSkip-VR takes a FederatedDataset and has no aggregator seam or
      // obs phases: only the model and compressor seams are decorated.
      model = std::make_shared<CountingModel>(model_, *stats);
      options.comm.compressor = std::make_shared<CountingCompressor>(
          options.comm.compressor, *stats);
    }
    return timed_run(
        [&] {
          return core::run_proxskip_vr(
              model, *dataset_, options, "perfbench",
              std::vector<double>(model_->num_parameters(), 0.0));
        },
        Goal{.accuracy_floor = c_.floor, .loss_target = std::nullopt});
  }

  [[nodiscard]] ProbeInputs probe_inputs() const override {
    ProbeInputs p;
    p.model = model_;
    p.shard = &dataset_->train.front();
    // ProxSkip-VR makes one SVRG step per iteration: the solver probe runs
    // LocalSolver with its step, batch and tau = 1.
    p.solver.estimator = opt::Estimator::kSvrg;
    p.solver.tau = 1;
    p.solver.eta = options_.step_size;
    p.solver.mu = 0.0;
    p.solver.batch_size = options_.batch_size;
    p.channel = options_.comm;
    p.num_devices = dataset_->num_devices();
    return p;
  }

 private:
  ProxSkipConfig c_;
  std::shared_ptr<const data::FederatedDataset> dataset_;
  std::shared_ptr<const nn::Model> model_;
  core::ProxSkipVROptions options_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"convex_fig2",
                                                 "fleet_sampled"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "convex_fig2") return std::make_unique<ConvexFig2>(ConvexConfig{});
  if (name == "fleet_sampled") {
    return std::make_unique<FleetSampled>(FleetConfig{});
  }
  return nullptr;
}

std::unique_ptr<Workload> make_proxskip(bool tiny) {
  if (tiny) {
    return std::make_unique<ProxSkipComm>(ProxSkipConfig{
        .devices = 4, .min_samples = 20, .max_samples = 30, .iterations = 20,
        .floor = 0.0});
  }
  return std::make_unique<ProxSkipComm>(ProxSkipConfig{});
}

std::unique_ptr<Workload> make_tiny_workload(std::string_view name) {
  if (name == "convex_fig2") {
    return std::make_unique<ConvexFig2>(ConvexConfig{.devices = 4,
                                                     .pool = 400,
                                                     .min_samples = 40,
                                                     .max_samples = 60,
                                                     .rounds = 3,
                                                     .loss_target = 10.0,
                                                     .accuracy_floor = 0.0});
  }
  if (name == "fleet_sampled") {
    return std::make_unique<FleetSampled>(
        FleetConfig{.fleet = 200, .sampled = 8, .rounds = 3, .floor = 0.0});
  }
  return nullptr;
}

}  // namespace perfbench
