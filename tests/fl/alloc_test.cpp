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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/message.h"
#include "data/federation.h"
#include "fl/trainer.h"
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
// pool's task queue keeps its storage between fan-outs, so every warm
// fan-out makes the same allocations: the chunks' own callables, nothing
// for the queue. (A std::deque queue allocated a node every few fan-outs,
// so the count cycled.) Equality, not a value: how many bytes a
// std::function holds inline is up to the standard library.
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
  for (int call = 0; call < 32; ++call) {
    EXPECT_EQ(fan_out(), first) << "fan-out " << call;
  }
  util::ThreadPool::reset_global(0);
}

}  // namespace
}  // namespace fedvr::fl
