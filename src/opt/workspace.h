// Solver workspaces: every buffer one device activation of the local solver
// (and the code that drives it) touches, owned in one place and reused
// across local epochs and rounds.
//
// The local inner loop is the hot path of every federated round: without
// reuse each solve() allocates ~10 dim-sized vectors, and a trainer running
// R rounds x N devices pays R*N*10 heap round-trips that dwarf the actual
// arithmetic for small models. The round policies run each device step on
// the calling thread's workspace (thread_workspace()), whose vectors keep
// their capacity, so a warm solve makes no heap allocation at all —
// nn_alloc_test counts operator new around one, and the workspace tests pin
// the buffer storage.
#pragma once

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "nn/model.h"
#include "tensor/aligned.h"

namespace fedvr::opt {

/// Reusable buffers for LocalSolver::solve() and its callers. All vectors
/// retain capacity between uses; solve() resizes them to the model
/// dimension (or batch/dataset size) it needs. Contents are scratch — no
/// state is carried between solves. Every dim-sized buffer, and
/// batch_rows' features, start on a cache line (tensor/aligned.h): they are
/// the operands of the model's GEMMs and of the solver's vector kernels.
struct SolverWorkspace {
  using Vector = tensor::AlignedVector<double>;
  // Inner-loop iterates and estimator directions (dim-sized).
  Vector w_prev;
  Vector w_curr;
  Vector v;
  Vector grad_curr;
  Vector grad_ref;
  Vector v0;        // SVRG anchor direction
  Vector anchor_w;  // SVRG gradient reference point
  // The model's outputs at anchor_w from the line-4 full gradient, which
  // each SVRG step replays for its mini-batch (nn::Model::replay_gradient).
  nn::GradientRecord anchor_record;
  Vector snapshot;  // kUniformRandom iterate snapshot
  Vector grad_j;    // full surrogate gradient (diagnostics)
  // The drawn mini-batch's rows, copied once per SVRG/SARAH step so both
  // gradient calls read them in place (Dataset::assign_rows reuses the
  // storage).
  data::Dataset batch_rows;
  // Index buffers.
  std::vector<std::size_t> batch;
  std::vector<std::size_t> full_idx;
  // Caller-side staging: upload deltas, per-device comm scratch.
  Vector delta;
};

/// The calling thread's workspace, created on first use and kept, with the
/// capacity of the largest model it served, until the thread exits (the
/// idiom of nn's eval scratch and the kernels' scratch, tensor/arena.h).
/// One device step runs on one thread and never starts another step on
/// that thread: a nested parallel_for runs inline, and a thread that fans
/// out waits without running a chunk. So no two live steps share a
/// workspace, and because solve() overwrites everything it reads, no
/// result depends on which thread a step runs on.
[[nodiscard]] inline SolverWorkspace& thread_workspace() {
  thread_local SolverWorkspace ws;
  return ws;
}

}  // namespace fedvr::opt
