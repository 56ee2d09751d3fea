// Heap regression tests for the round engine and its uplink encode.
//
// This binary links the counting operator new / delete of
// testing/alloc_counter.cpp, so it is kept apart from every other suite.
// An observed run (observability on) times its phases and device solves in
// a few scalars, so the bytes it allocates per round depend on the round's
// participants, never on the fleet. The first case runs a sampled round on
// a 10⁶-device virtual fleet, where anything kept per fleet device per
// round would cost megabytes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "comm/message.h"
#include "data/federation.h"
#include "fl/trainer.h"
#include "nn/models.h"
#include "opt/local_solver.h"
#include "testing/alloc_counter.h"
#include "testing/quadratic_model.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedvr::fl {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;

constexpr std::size_t kDim = 5;
constexpr std::size_t kFleet = 1'000'000;

/// A quadratic fleet generated on demand: O(1) storage at any N.
std::shared_ptr<data::VirtualFederation> virtual_quadratic_fleet() {
  auto size_fn = [](std::size_t device) { return 8 + device % 5; };
  auto gen = [](std::size_t device, std::size_t num_samples,
                data::Dataset& out) {
    out = quadratic_dataset(num_samples, kDim,
                            static_cast<double>(device % 7), 0.3,
                            900 + device);
  };
  data::Dataset pooled = quadratic_dataset(16, kDim, 3.0, 0.3, 424242);
  return std::make_shared<data::VirtualFederation>(kFleet, size_fn, gen,
                                                   std::move(pooled));
}

/// Bytes requested through operator new by one observed run of `rounds`
/// sampled rounds with eval off, from Trainer::run's call to its return.
std::int64_t observed_run_bytes(std::size_t rounds) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kFullGradient;
  o.tau = 2;
  o.eta = 0.2;
  o.mu = 0.5;
  const opt::LocalSolver solver(model, o);
  TrainerOptions opts;
  opts.rounds = rounds;
  opts.seed = 17;
  opts.devices_per_round = 8;
  opts.eval_every = rounds + 1;  // global metrics are O(fleet): none
  opts.eval_final = false;
  opts.observability.enabled = true;
  const Trainer trainer(model, virtual_quadratic_fleet(), opts);
  const std::uint64_t before = testing::heap_bytes();
  const TrainingTrace trace = trainer.run(solver, "observed");
  const std::uint64_t bytes = testing::heap_bytes() - before;
  EXPECT_TRUE(trace.rounds.empty());
  EXPECT_TRUE(trace.measured_timing.has_value());
  return static_cast<std::int64_t>(bytes);
}

TEST(FlAlloc, ObservedRunAllocatesPerRoundIndependentOfTheFleet) {
  // A fixed pool, warmed by a first run: every worker's span ring buffer
  // and every registry handle exist before the measured runs, so the
  // difference below is what the ten extra rounds themselves allocate.
  util::ThreadPool::reset_global(2);
  (void)observed_run_bytes(12);
  const std::int64_t short_run = observed_run_bytes(2);
  const std::int64_t long_run = observed_run_bytes(12);
  const double per_round = static_cast<double>(long_run - short_run) / 10.0;
  // 16 bytes per fleet device per round would be 16 MB.
  EXPECT_LT(per_round, 1024.0 * 1024.0)
      << "an observed round allocated " << per_round << " bytes on a "
      << kFleet << "-device fleet";
  util::ThreadPool::reset_global(0);
}

// A top-k uplink of the 60 -> 10 logistic model keeps 61 of 610
// coordinates. Message::encode_nonzeros counts them before it fills its
// index and value buffers, so it allocates each buffer once, plus the
// frame.
TEST(FlAlloc, EncodeNonzerosAllocatesEachBufferOnce) {
  std::vector<double> delta(610, 0.0);
  for (std::size_t i = 0; i < delta.size(); i += 10) {
    delta[i] = 0.25 + static_cast<double>(i);
  }
  const std::uint64_t before = testing::heap_allocations();
  const comm::Message msg =
      comm::Message::encode_nonzeros(delta, comm::DType::kFloat32);
  const std::uint64_t allocations = testing::heap_allocations() - before;
  EXPECT_EQ(msg.count(), 61U);
  EXPECT_EQ(allocations, 3U) << "index buffer, value buffer and frame";
}

// The round engine hands each solve its slot's upload buffer as w_out, and
// a slot's buffer is empty in a run's first round. LocalSolver::solve
// copies its iterate into w_out, so the thread's workspace keeps its
// capacity: after a solve into an empty w_out, a solve on the same thread
// into a w_out that already has dim capacity allocates nothing. (Swapping
// the iterate out gave the workspace the empty buffer, and that next solve
// grew it again, so a round's count followed the pool's scheduling.)
TEST(FlAlloc, SolveIntoAWarmOutputAllocatesNothing) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kSvrg;
  o.tau = 4;
  o.eta = 0.2;
  o.mu = 0.5;
  o.batch_size = 2;
  const opt::LocalSolver solver(model, o);
  const data::Dataset shard = quadratic_dataset(9, kDim, 1.0, 0.3, 77);
  const std::vector<double> anchor(kDim, 0.5);
  util::ThreadPool pool(1);
  const std::uint64_t allocations =
      pool.submit([&] {
            opt::SolverWorkspace ws;
            util::Rng rng(5);
            std::vector<double> first;
            (void)solver.solve(shard, anchor, rng, ws, first);
            std::vector<double> second;
            second.reserve(kDim);
            const std::uint64_t before = testing::heap_allocations();
            (void)solver.solve(shard, anchor, rng, ws, second);
            const std::uint64_t made = testing::heap_allocations() - before;
            EXPECT_EQ(second.size(), kDim);
            return made;
          })
          .get();
  EXPECT_EQ(allocations, 0U);
}

// A fan-out queues one type-erased task per chunk and waits for them. The
// pool's task queue keeps its storage between fan-outs, and a queued chunk
// is a pointer to the fan-out's job record plus its index, 16 bytes, which
// std::function holds without allocating; so a warm fan-out allocates
// nothing. (A std::deque queue allocated a node every few fan-outs, so the
// count cycled; a chunk that captured its bounds, the callable and the
// job, 32 bytes, made one allocation each.)
TEST(FlAlloc, WarmFanOutsAllocateTheSameCount) {
  util::ThreadPool::reset_global(4);
  util::ThreadPool& pool = util::ThreadPool::global();
  std::vector<double> out(pool.size(), 0.0);
  const auto fan_out = [&] {
    const std::uint64_t before = testing::heap_allocations();
    pool.parallel_for(0, out.size(), [&](std::size_t i) { out[i] += 1.0; });
    return testing::heap_allocations() - before;
  };
  for (int warm = 0; warm < 4; ++warm) (void)fan_out();
  const std::uint64_t first = fan_out();
  EXPECT_EQ(first, 0U);
  for (int call = 0; call < 32; ++call) {
    EXPECT_EQ(fan_out(), first) << "fan-out " << call;
  }
  util::ThreadPool::reset_global(0);
}

// The round engine draws its participants with Floyd's sampler. Its taken
// set is a table the calling thread keeps, so a warm draw into an output
// with room allocates nothing, however many devices it draws. (A
// std::unordered_set allocated one node per drawn device.)
TEST(FlAlloc, WarmSubsetSampleAllocatesNothing) {
  util::Rng rng(19);
  std::vector<std::size_t> out;
  out.reserve(64);
  rng.sample_subset_sorted(100'000, 64, out);
  const std::uint64_t before = testing::heap_allocations();
  for (int round = 0; round < 10; ++round) {
    rng.sample_subset_sorted(100'000, 64, out);
    rng.sample_subset_sorted(40, 40, out);
  }
  EXPECT_EQ(testing::heap_allocations() - before, 0U);
  EXPECT_EQ(out.size(), 40U);
}

// A warm eval (global_loss plus test_accuracy, both fanned out over a pool
// of 4) allocates nothing: the fan-outs queue their chunks in place, the
// model reads the thread's eval scratch and identity indices, and the
// per-device partials and predictions live in buffers the calling thread
// keeps. Every worker is warmed first on the largest shard, by a fan-out
// whose chunks wait for each other, so all four run one.
TEST(FlAlloc, WarmEvalAllocatesNothing) {
  constexpr std::size_t kFeatures = 60;
  const auto model = nn::make_logistic_regression(kFeatures, 10);
  util::Rng rng(23);
  const auto shard = [&](std::size_t n) {
    data::Dataset ds(tensor::Shape({kFeatures}), n, 10);
    for (std::size_t i = 0; i < n; ++i) {
      for (double& v : ds.mutable_sample(i)) v = rng.normal();
      ds.set_label(i, static_cast<int>(rng.below(10)));
    }
    return ds;
  };
  data::FederatedDataset fed;
  for (std::size_t n = 0; n < 9; ++n) {
    fed.train.push_back(shard(40 + 10 * n));
    fed.test.push_back(shard(70));
  }
  TrainerOptions opts;
  opts.rounds = 1;
  const Trainer trainer(model, fed, opts);
  const std::vector<double> w = model->initial_parameters(rng);
  util::ThreadPool::reset_global(4);
  util::ThreadPool& pool = util::ThreadPool::global();
  std::atomic<std::size_t> started{0};
  pool.parallel_for(0, pool.size(), [&](std::size_t) {
    started.fetch_add(1);
    while (started.load() < pool.size()) std::this_thread::yield();
    std::vector<std::size_t> predicted(256);
    (void)model->full_loss(w, fed.train.back());
    model->predict(w, fed.test.back(), nn::identity_indices(256).first(70),
                   std::span<std::size_t>(predicted).first(70));
  });
  const double loss = trainer.global_loss(w);
  const double accuracy = trainer.test_accuracy(w);
  std::array<double, 10> evals{};
  const std::uint64_t before = testing::heap_allocations();
  for (std::size_t e = 0; e < evals.size(); e += 2) {
    evals[e] = trainer.global_loss(w);
    evals[e + 1] = trainer.test_accuracy(w);
  }
  const std::uint64_t allocations = testing::heap_allocations() - before;
  util::ThreadPool::reset_global(0);
  EXPECT_EQ(allocations, 0U);
  for (std::size_t e = 0; e < evals.size(); e += 2) {
    EXPECT_EQ(evals[e], loss);
    EXPECT_EQ(evals[e + 1], accuracy);
  }
}

}  // namespace
}  // namespace fedvr::fl
