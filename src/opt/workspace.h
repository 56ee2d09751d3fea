// Per-device solver workspaces: every buffer one device activation of the
// local solver (and the code that drives it) touches, owned in one place
// and reused across local epochs and rounds.
//
// The local inner loop is the hot path of every federated round: without
// reuse each solve() allocates ~10 dim-sized vectors, and a trainer running
// R rounds x N devices pays R*N*10 heap round-trips that dwarf the actual
// arithmetic for small models. A SolverWorkspace is acquired once per
// device activation (via WorkspacePool when activations run on pool
// threads) and its vectors keep their capacity, so a warm solve makes no
// heap allocation at all — nn_alloc_test counts operator new around one,
// and the workspace tests pin the buffer storage.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "data/dataset.h"

namespace fedvr::opt {

/// Reusable buffers for LocalSolver::solve() and its callers. All vectors
/// retain capacity between uses; solve() resizes them to the model
/// dimension (or batch/dataset size) it needs. Contents are scratch — no
/// state is carried between solves.
struct SolverWorkspace {
  // Inner-loop iterates and estimator directions (dim-sized).
  std::vector<double> w_prev;
  std::vector<double> w_curr;
  std::vector<double> v;
  std::vector<double> grad_curr;
  std::vector<double> grad_ref;
  std::vector<double> v0;        // SVRG anchor direction
  std::vector<double> anchor_w;  // SVRG gradient reference point
  std::vector<double> snapshot;  // kUniformRandom iterate snapshot
  std::vector<double> grad_j;    // full surrogate gradient (theta checks,
                                 // diagnostics)
  // The drawn mini-batch's rows, copied once per SVRG/SARAH step so both
  // gradient calls read them in place (Dataset::assign_rows reuses the
  // storage).
  data::Dataset batch_rows;
  // Index buffers.
  std::vector<std::size_t> batch;
  std::vector<std::size_t> full_idx;
  std::vector<std::size_t> permutation;  // kShuffledEpochs sampling order
  // Caller-side staging: upload deltas, per-device comm scratch.
  std::vector<double> delta;
};

/// Thread-safe pool of SolverWorkspaces for device activations that run on
/// thread-pool workers. Holds one workspace per peak-concurrent activation
/// (lazily created), so a trainer's steady state touches the heap only for
/// the pool bookkeeping mutex, never for solver buffers.
class WorkspacePool {
 public:
  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// RAII lease: acquires a workspace on construction, returns it on
  /// destruction. Keep it on the stack for the span of one activation.
  class Lease {
   public:
    explicit Lease(WorkspacePool& pool) : pool_(&pool), ws_(pool.take()) {}
    ~Lease() {
      if (ws_ != nullptr) pool_->give_back(ws_);
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    SolverWorkspace& operator*() const { return *ws_; }
    SolverWorkspace* operator->() const { return ws_; }

   private:
    WorkspacePool* pool_;
    SolverWorkspace* ws_;
  };

  /// Number of workspaces ever created (== peak concurrent leases).
  [[nodiscard]] std::size_t size() const;

 private:
  SolverWorkspace* take();
  void give_back(SolverWorkspace* ws);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SolverWorkspace>> all_;
  std::vector<SolverWorkspace*> free_;
};

}  // namespace fedvr::opt
