// Layer probes: public library functions called directly at a workload's
// own shapes, timed with std::chrono::steady_clock. Each probe reports the
// median of several repetitions.
#pragma once

#include <cstddef>
#include <cstdint>

#include "workloads.h"

namespace perfbench {

/// The paper CNN's shape as cnn_fig3 trains it.
struct CnnShape {
  std::size_t side = 28;
  std::size_t conv1 = 32;
  std::size_t conv2 = 64;
  std::size_t kernel = 5;
  std::size_t batch = 16;
};

struct GemmProbe {
  double conv1_gflops = 0.0;       // conv1 im2col GEMM, one thread
  double conv2_gflops = 0.0;       // conv2 im2col GEMM, one thread
  double conv2_gflops_pool = 0.0;  // conv2 im2col GEMM on the global pool
};

/// Wall-clock GFLOP/s of the conv forward GEMMs (W · cols per sample).
[[nodiscard]] GemmProbe probe_gemm(const CnnShape& shape);

/// Forward+backward milliseconds of one minibatch through the paper CNN,
/// split by layer group as differences between successive prefixes of the
/// network, all run through nn::Sequential on one thread. Each group is the
/// median over repetitions of its within-repetition difference, so a small
/// group (dense) can read slightly negative on a noisy machine.
struct CnnLayerProbe {
  double conv1_ms = 0.0;
  double act_pool_ms = 0.0;  // both ReLU + max-pool pairs
  double conv2_ms = 0.0;
  double dense_ms = 0.0;
  double whole_ms = 0.0;     // the whole network (last prefix), for checks
  double spread_ms = 0.0;    // interquartile range of the whole-network time
  /// FeedForwardModel::loss_and_gradient on the same minibatch: the
  /// independent whole-network reference the prefix sums are checked against.
  double model_grad_ms = 0.0;
};

[[nodiscard]] CnnLayerProbe probe_cnn_layers(const CnnShape& shape,
                                             std::size_t reps);

struct SolveProbe {
  double solve_ms = 0.0;    // median LocalSolver::solve, warm workspace
  double self_share = 0.0;  // share of that time outside nn::Model calls
};

/// LocalSolver::solve on the workload's device-0 shard, serially inside one
/// pool worker (the mode the trainer runs device solves in).
[[nodiscard]] SolveProbe probe_solve(const ProbeInputs& in, std::size_t reps);

struct UplinkProbe {
  double uplink_us = 0.0;           // median Channel::uplink
  std::size_t bytes_per_update = 0;  // serialized size it returned
};

/// comm::Channel::uplink at the workload's dimension and channel options.
[[nodiscard]] UplinkProbe probe_uplink(const ProbeInputs& in,
                                       std::size_t reps);

}  // namespace perfbench
