// ProxSkip-VR: communication-skipping proximal gradient with variance
// reduction (Malinovsky, Yi & Richtárik, "Variance Reduced ProxSkip",
// arXiv:2207.04338; ProxSkip/Scaffnew: Mishchenko et al., ICML 2022).
//
// Where Algorithm 1 (FedProxVR) communicates every tau local iterations on
// a fixed schedule, ProxSkip flips a shared Bernoulli(p) coin each
// iteration and only synchronizes when it lands heads — in expectation one
// communication every 1/p iterations — while per-device control variates
// h_n correct the client drift that plain local SGD accumulates:
//
//   per device n, iteration t:
//     g_n^t     = SVRG estimator at x_n^t (anchor gradient refreshed at
//                 every communication round)
//     x̂_n^{t+1} = x_n^t − γ (g_n^t − h_n^t)
//   shared coin θ_t ~ Bernoulli(p) (same draw on every device):
//     θ_t = 1:  x_{t+1}   = Σ_n (D_n/D) (x̂_n^{t+1} − (γ/p) h_n^t)
//               h_n^{t+1} = h_n^t + (p/γ)(x_{t+1} − x̂_n^{t+1})
//               x_n^{t+1} = x_{t+1}           (broadcast)
//     θ_t = 0:  x_n^{t+1} = x̂_n^{t+1},  h unchanged,  no communication
//
// The prox step of ProxSkip is consensus averaging (the indicator of the
// consensus set), i.e. exactly the paper's line-12 weighted mean.
//
// Communication goes through comm::Channel: each device uploads
// y_n − anchor (its proposal as a delta against the last broadcast model),
// so TopK/RandK sparsification, error feedback, and lossy wire dtypes
// apply unchanged, and uplink/downlink bytes are measured from serialized
// comm::Message sizes. Every skipped round is a round of zero
// communication cost — the whole point of the method.
//
// The algorithm is a RoundPolicy of fl::Trainer's round engine (one
// iteration = one round, tau = 1): selection, the fault and timing
// schedule, the channel, byte/time/fault accounting, eval, early stop and
// the trace are the engine's, shared with FedProxVR.
//
// Determinism: the skip coin for iteration t is drawn from
// fork(seed, 0, t, stream::kComm) — device coordinate 0, which never
// collides with per-device comm streams at coordinates >= 1 — and all
// per-device randomness (minibatch, compressor) uses the same
// per-(seed, device, round) forking as fl::Trainer, so traces are
// bit-identical for any thread-pool size.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/channel.h"
#include "data/dataset.h"
#include "fl/faults.h"
#include "fl/metrics.h"
#include "fl/timing_model.h"
#include "nn/model.h"

namespace fedvr::core {

struct ProxSkipVROptions {
  /// Total ProxSkip iterations T. One iteration = one local SVRG step on
  /// every device (tau = 1 in eq. 19 terms); only ~p*T of them communicate.
  std::size_t iterations = 200;
  std::uint64_t seed = 1;
  /// Local step size γ.
  double step_size = 0.1;
  /// Communication probability p ∈ (0, 1]: the shared per-iteration coin.
  /// p = 1 communicates every iteration; the paper's regime is p ≈ 1/√κ.
  double skip_prob = 0.1;
  /// SVRG minibatch size per local step (clamped to the device's D_n).
  std::size_t batch_size = 8;
  /// Analytic timing (eq. 19 with tau = 1): skipped iterations charge only
  /// d_cmp, communication iterations add d_com (byte-derived when
  /// comm.byte_timing is set).
  fl::TimingModel timing;
  std::size_t eval_every = 10;
  bool eval_initial = false;
  std::optional<double> target_accuracy;
  /// The uplink seam (compression, error feedback, wire dtypes,
  /// byte-derived link timing) — same options as fl::TrainerOptions::comm.
  comm::ChannelOptions comm;
  /// Crash / straggler / lossy-uplink injection. Corruption faults are not
  /// supported (ProxSkip-VR's server update has no defense layer);
  /// enabling them is a configuration error.
  fl::FaultModel faults;
  bool parallel = true;

  /// Always-on validation (util/error.h), called by run_proxskip_vr.
  void validate() const;
};

/// Runs ProxSkip-VR and returns a trace in the same schema as fl::Trainer.
///
/// Metrics are evaluated at the virtual weighted average
/// x̄_t = Σ_n (D_n/D) x_n^t — the iterate ProxSkip's analysis tracks —
/// which coincides with the broadcast server model at every communication
/// round. final_parameters is x̄_T. RoundMetrics::round counts ProxSkip
/// iterations (not communication rounds); uplink_bytes / downlink_bytes
/// grow only on communication iterations.
///
/// Fault semantics: a crashed device skips its local step (its x_n, h_n
/// stay put) and is excluded from the average; an uplink-exhausted device
/// keeps its local step but its proposal is lost (survivor weights are
/// renormalized); the downlink broadcast is reliable — every device,
/// including crashed ones, adopts the new consensus and updates h_n, which
/// keeps the shared delta-compression anchor consistent across the fleet.
/// A skipped iteration charges only d_cmp·slowdown and counts no uplink
/// retries, undelivered updates or bytes. A communication round with zero
/// survivors degrades to a skip round (uplink attempts are still charged).
[[nodiscard]] fl::TrainingTrace run_proxskip_vr(
    std::shared_ptr<const nn::Model> model, const data::FederatedDataset& fed,
    const ProxSkipVROptions& options, const std::string& name = "proxskip_vr",
    std::optional<std::vector<double>> w0 = std::nullopt);

}  // namespace fedvr::core
