// SolverWorkspace / thread_workspace(): the per-thread buffer reuse behind
// the zero-allocation local epochs. The load-bearing property is that the
// workspace overload of LocalSolver::solve is *bit-identical* to the
// classic overload — same floating-point sequence, same RNG draws — no
// matter how dirty the workspace is from previous solves, and that warm
// solves stop touching the heap (pinned here as "the buffer storage stops
// moving").
#include "opt/workspace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "nn/models.h"
#include "opt/local_solver.h"
#include "tensor/aligned.h"
#include "testing/quadratic_model.h"
#include "util/rng.h"

namespace fedvr::opt {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;
using fedvr::util::Rng;

std::shared_ptr<const nn::Model> quad_model(std::size_t dim) {
  return std::make_shared<QuadraticModel>(dim);
}

LocalSolverOptions base_options() {
  LocalSolverOptions o;
  o.estimator = Estimator::kSvrg;
  o.tau = 15;
  o.eta = 0.2;
  o.mu = 0.5;
  o.batch_size = 2;
  return o;
}

void expect_same_result(const LocalSolverResult& classic,
                        const LocalSolverResult& pooled,
                        const std::vector<double>& pooled_w,
                        const std::string& label) {
  ASSERT_EQ(classic.w.size(), pooled_w.size()) << label;
  for (std::size_t i = 0; i < classic.w.size(); ++i) {
    EXPECT_EQ(classic.w[i], pooled_w[i]) << label << " coord " << i;
  }
  EXPECT_TRUE(pooled.w.empty()) << label;  // iterate lives in w_out instead
  EXPECT_EQ(classic.anchor_grad_norm, pooled.anchor_grad_norm) << label;
  EXPECT_EQ(classic.anchor_loss, pooled.anchor_loss) << label;
  EXPECT_EQ(classic.surrogate_grad_norm, pooled.surrogate_grad_norm) << label;
  EXPECT_EQ(classic.measured_theta, pooled.measured_theta) << label;
  EXPECT_EQ(classic.sample_gradient_evals, pooled.sample_gradient_evals)
      << label;
  EXPECT_EQ(classic.iterations_run, pooled.iterations_run) << label;
}

TEST(ThreadWorkspace, OnePerThreadStableAcrossCalls) {
  SolverWorkspace* const mine = &thread_workspace();
  thread_workspace().w_curr.resize(64);
  // The same workspace on every call, warmed buffers and all.
  EXPECT_EQ(&thread_workspace(), mine);
  EXPECT_GE(thread_workspace().w_curr.capacity(), 64U);
  // Another thread gets a workspace of its own.
  bool distinct = false;
  std::thread([&distinct, mine] { distinct = &thread_workspace() != mine; })
      .join();
  EXPECT_TRUE(distinct);
}

// Every estimator / selection combination the trainer can configure must produce the identical iterate and identical RNG
// consumption through the workspace overload.
TEST(SolverWorkspaceSolve, MatchesClassicSolveBitwise) {
  const std::size_t dim = 5;
  const auto model = quad_model(dim);
  const auto ds = quadratic_dataset(40, dim, 2.0, 1.0, 3);
  const std::vector<double> anchor(dim, 0.25);

  SolverWorkspace ws;  // deliberately shared (and dirtied) across configs
  std::vector<double> w_out;
  std::uint64_t seed = 100;
  for (auto estimator : {Estimator::kSgd, Estimator::kSvrg, Estimator::kSarah,
                         Estimator::kFullGradient}) {
    for (auto selection :
         {IterateSelection::kLast, IterateSelection::kUniformRandom}) {
      auto opts = base_options();
      opts.estimator = estimator;
      opts.selection = selection;
      opts.compute_diagnostics = true;
      const LocalSolver solver(model, opts);
      const std::string label =
          "estimator=" + std::to_string(static_cast<int>(estimator)) +
          " selection=" + std::to_string(static_cast<int>(selection));
      ++seed;
      Rng rng_classic(seed);
      Rng rng_ws(seed);
      const auto classic = solver.solve(ds, anchor, rng_classic);
      const auto pooled = solver.solve(ds, anchor, rng_ws, ws, w_out);
      expect_same_result(classic, pooled, w_out, label);
    }
  }
}

// One workspace serving solvers of different dimensionality: buffers must
// resize correctly and the results stay identical to fresh-workspace runs.
TEST(SolverWorkspaceSolve, SharedWorkspaceAcrossDimensionsStaysIdentical) {
  SolverWorkspace shared;
  std::vector<double> w_out;
  for (std::size_t dim : {6U, 3U, 6U}) {
    const auto model = quad_model(dim);
    const auto ds = quadratic_dataset(24, dim, 1.5, 1.0, dim);
    const std::vector<double> anchor(dim, 0.5);
    const LocalSolver solver(model, base_options());
    Rng rng_fresh(dim);
    Rng rng_shared(dim);
    SolverWorkspace fresh;
    std::vector<double> w_fresh;
    (void)solver.solve(ds, anchor, rng_fresh, fresh, w_fresh);
    (void)solver.solve(ds, anchor, rng_shared, shared, w_out);
    ASSERT_EQ(w_fresh.size(), dim);
    for (std::size_t i = 0; i < dim; ++i) {
      EXPECT_EQ(w_fresh[i], w_out[i]) << "dim " << dim << " coord " << i;
    }
  }
}

// The zero-allocation claim, pinned as an observable: once warm, repeated
// solves stop moving buffer storage. w_prev and w_curr swap inside every
// inner iteration, so individual members trade pointers — but the
// *multiset* of backing allocations must be closed.
TEST(SolverWorkspaceSolve, WarmSolvesReuseBufferStorage) {
  const std::size_t dim = 5;
  const auto model = quad_model(dim);
  const auto ds = quadratic_dataset(40, dim, 2.0, 1.0, 3);
  const std::vector<double> anchor(dim, 0.25);
  auto opts = base_options();
  opts.selection = IterateSelection::kUniformRandom;  // exercises snapshot
  opts.compute_diagnostics = true;                    // exercises grad_j
  const LocalSolver solver(model, opts);

  SolverWorkspace ws;
  std::vector<double> w_out;
  Rng rng(17);
  for (int warm = 0; warm < 2; ++warm) {
    (void)solver.solve(ds, anchor, rng, ws, w_out);
  }
  const auto storage = [&] {
    const std::size_t rows = ws.batch_rows.size();
    return std::multiset<const void*>{
        ws.w_prev.data(),   ws.w_curr.data(),    ws.v.data(),
        ws.grad_curr.data(), ws.grad_ref.data(), ws.v0.data(),
        ws.anchor_w.data(), ws.snapshot.data(),  ws.grad_j.data(),
        ws.batch.data(),    ws.full_idx.data(),
        ws.batch_rows.rows(0, rows).data(),
        ws.batch_rows.labels(0, rows).data(), w_out.data()};
  };
  const auto warm_storage = storage();
  for (int round = 0; round < 10; ++round) {
    (void)solver.solve(ds, anchor, rng, ws, w_out);
    EXPECT_EQ(storage(), warm_storage) << "round " << round;
  }
}

// Every dim-sized buffer and the mini-batch copy start on a cache line
// after SVRG and SARAH solves: they are the operands of the model's GEMMs
// and of the solver's vector kernels. An odd tau leaves w_prev and w_curr
// swapped, an even one does not; dim 5 makes each buffer 40 bytes, no
// multiple of a line.
TEST(Alignment, SolverWorkspaceBuffersStartOnALine) {
  const std::size_t dim = 5;
  const auto model = quad_model(dim);
  const auto ds = quadratic_dataset(23, dim, 2.0, 1.0, 3);
  const std::vector<double> anchor(dim, 0.25);
  const auto on_line = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % tensor::kCacheLine == 0;
  };
  for (const Estimator estimator : {Estimator::kSvrg, Estimator::kSarah}) {
    for (const std::size_t tau : {4, 5}) {
      auto opts = base_options();
      opts.estimator = estimator;
      opts.tau = tau;
      opts.batch_size = 3;
      opts.selection = IterateSelection::kUniformRandom;  // fills snapshot
      opts.compute_diagnostics = true;                    // fills grad_j
      const LocalSolver solver(model, opts);
      SolverWorkspace ws;
      std::vector<double> w_out;
      Rng rng(tau);
      (void)solver.solve(ds, anchor, rng, ws, w_out);
      ws.delta.resize(dim);  // the trainer's upload staging
      std::vector<const SolverWorkspace::Vector*> buffers = {
          &ws.w_prev,   &ws.w_curr,   &ws.v,      &ws.grad_curr,
          &ws.grad_ref, &ws.snapshot, &ws.grad_j, &ws.delta};
      if (estimator == Estimator::kSvrg) {
        buffers.push_back(&ws.v0);
        buffers.push_back(&ws.anchor_w);
      }
      for (std::size_t b = 0; b < buffers.size(); ++b) {
        ASSERT_EQ(buffers[b]->size(), dim) << "buffer " << b;
        EXPECT_TRUE(on_line(buffers[b]->data()))
            << "buffer " << b << ", tau " << tau;
      }
      const std::size_t rows = ws.batch_rows.size();
      ASSERT_EQ(rows, 3U);
      EXPECT_TRUE(on_line(ws.batch_rows.rows(0, rows).data()));
    }
  }
}

// The SVRG anchor record holds the shard's rows x classes probabilities,
// which every step reads: its buffer starts on a cache line and keeps its
// storage from solve to solve, a smaller shard reusing it.
TEST(Alignment, AnchorRecordStartsOnALineAndKeepsItsStorage) {
  const auto model = nn::make_logistic_regression(60, 10);
  const auto shard = [](std::size_t n, std::uint64_t seed) {
    data::Dataset ds(tensor::Shape({60}), n, 10);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& v : ds.mutable_sample(i)) v = rng.normal();
      ds.set_label(i, static_cast<int>(rng.below(10)));
    }
    return ds;
  };
  const auto big = shard(90, 1);
  const auto small = shard(41, 2);
  auto opts = base_options();
  opts.batch_size = 8;
  const LocalSolver solver(model, opts);
  const std::vector<double> anchor(model->num_parameters(), 0.01);
  SolverWorkspace ws;
  std::vector<double> w_out;
  Rng rng(3);
  (void)solver.solve(big, anchor, rng, ws, w_out);
  const nn::GradientRecord& record = ws.anchor_record;
  EXPECT_EQ(record.rows, 90U);
  EXPECT_EQ(record.width, 10U);
  const double* storage = record.outputs.data();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(storage) % tensor::kCacheLine,
            0U);
  for (int solve = 0; solve < 6; ++solve) {
    const data::Dataset& ds = solve % 2 == 0 ? small : big;
    (void)solver.solve(ds, anchor, rng, ws, w_out);
    EXPECT_EQ(record.rows, ds.size()) << "solve " << solve;
    EXPECT_EQ(record.outputs.data(), storage) << "solve " << solve;
  }
}

}  // namespace
}  // namespace fedvr::opt
