#include "core/proxskip.h"

#include <algorithm>
#include <cmath>

#include "fl/trainer.h"
#include "opt/workspace.h"
#include "tensor/vecops.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedvr::core {

void ProxSkipVROptions::validate() const {
  FEDVR_CHECK_MSG(iterations >= 1, "iterations must be >= 1");
  FEDVR_CHECK_MSG(std::isfinite(step_size) && step_size > 0.0,
                  "step_size must be positive and finite, got " << step_size);
  FEDVR_CHECK_MSG(skip_prob > 0.0 && skip_prob <= 1.0,
                  "skip_prob must be in (0, 1], got " << skip_prob);
  FEDVR_CHECK_MSG(batch_size >= 1, "batch_size must be >= 1");
  FEDVR_CHECK_MSG(eval_every >= 1, "eval_every must be >= 1");
  timing.validate();
  comm.validate();
  FEDVR_CHECK_MSG(!faults.config().corruption_enabled(),
                  "ProxSkip-VR does not model update corruption (no "
                  "server-side defense layer); use fl::Trainer for "
                  "Byzantine experiments");
}

namespace {

/// ProxSkip-VR as a round policy of fl::Trainer: one iteration is one
/// round. Every non-crashed device takes one SVRG step, the shared coin
/// decides whether the iteration communicates, and on heads the server
/// takes the consensus prox step and every device updates its control
/// variate.
///
/// Per-device state lives in flat num_devices×dim slabs, device n's view a
/// subspan touched only from its own parallel index (determinism
/// contract). ProxSkip-VR is a full-participation algorithm — every device
/// holds a live iterate and control variate between rounds — so O(N·dim)
/// state is inherent here.
class ProxSkipVRPolicy final : public fl::RoundPolicy {
 public:
  ProxSkipVRPolicy(std::shared_ptr<const nn::Model> model,
                   const data::FederatedDataset& fed,
                   const ProxSkipVROptions& options)
      : model_(std::move(model)),
        fed_(fed),
        options_(options),
        dim_(model_->num_parameters()) {
    weights_.reserve(fed.num_devices());
    for (std::size_t n = 0; n < fed.num_devices(); ++n) {
      weights_.push_back(fed.weight(n));
      total_samples_ += fed.train[n].size();
    }
  }

  std::size_t begin(std::vector<double> w0) override {
    anchor_ = std::move(w0);  // the last broadcast consensus model
    x_.resize(fed_.num_devices() * dim_);
    for (std::size_t n = 0; n < fed_.num_devices(); ++n) {
      tensor::copy(anchor_, view(x_, n));
    }
    h_.assign(x_.size(), 0.0);
    anchor_grad_.assign(x_.size(), 0.0);
    records_.resize(fed_.num_devices());
    x_next_.assign(dim_, 0.0);
    xbar_.assign(dim_, 0.0);
    return refresh_anchor_gradients();
  }

  // The shared skip coin: one draw per iteration, device coordinate 0 of
  // the kComm stream (per-device comm streams use coordinates >= 1).
  [[nodiscard]] bool communicates(std::size_t t) const override {
    util::Rng coin = util::fork(options_.seed, 0, t, util::stream::kComm);
    return coin.uniform() < options_.skip_prob;
  }

  // A device whose upload is lost keeps its local step.
  [[nodiscard]] bool steps_undelivered() const override { return true; }

  // x̂ = x − γ(g − h) with the SVRG estimator; on a delivered
  // communication round, the proposal goes up as a delta.
  fl::StepResult local_step(const fl::LocalStep& step) override {
    const std::size_t n = step.device;
    const data::Dataset& ds = fed_.train[n];
    const std::size_t batch = std::min(options_.batch_size, ds.size());
    util::Rng rng =
        util::fork(options_.seed, n + 1, step.round, util::stream::kSampling);
    opt::SolverWorkspace& ws = opt::thread_workspace();
    std::vector<std::size_t>& idx = ws.batch;
    idx.resize(batch);
    for (auto& i : idx) i = rng.below(ds.size());

    // SVRG estimator: ∇f_B(x_n) − ∇f_B(anchor) + ∇F_n(anchor), with the
    // same minibatch at both points (eq. 8b); the anchor half replays the
    // device's record of its last anchor gradient.
    opt::SolverWorkspace::Vector& g = ws.grad_curr;
    g.resize(dim_);
    opt::SolverWorkspace::Vector& g_anchor = ws.grad_ref;
    g_anchor.resize(dim_);
    const std::span<double> xn = view(x_, n);
    const std::span<const double> hn = view(h_, n);
    const std::span<const double> agn = view(anchor_grad_, n);
    model_->loss_and_gradient(xn, ds, idx, g);
    model_->replay_gradient(anchor_, ds, idx, records_[n], idx, g_anchor);
    // v = g − g_anchor + anchor_grad; x̂ = x − γ(v − h), written in place.
    const double gamma = options_.step_size;
    for (std::size_t i = 0; i < dim_; ++i) {
      const double v = g[i] - g_anchor[i] + agn[i];
      xn[i] -= gamma * (v - hn[i]);
    }
    fl::StepResult out{.grad_evals = 2 * batch, .iterations = 1};
    if (step.uploads) {
      // Proposal y_n = x̂_n − (γ/p) h_n, uploaded as a delta against the
      // shared anchor so sparsification/quantization compress the small
      // innovation, not the full model.
      const double gamma_over_p = gamma / options_.skip_prob;
      std::vector<double>& up = step.upload;
      up.resize(dim_);
      for (std::size_t i = 0; i < dim_; ++i) {
        up[i] = xn[i] - gamma_over_p * hn[i] - anchor_[i];
      }
      util::Rng comm_rng =
          util::fork(options_.seed, n + 1, step.round, util::stream::kComm);
      out.uplink_bytes = step.channel.uplink(n, up, comm_rng);
    }
    return out;
  }

  // The consensus prox step over the decoded deltas, then the control
  // variates and the broadcast. Zero survivors degrade the round to a skip
  // round: no broadcast, no h update (the uplink attempts are still
  // charged).
  fl::ServerUpdate server_update(const fl::ServerRound& round) override {
    if (round.survivors.empty()) return {};
    survivor_weights_.clear();
    survivor_weights_.reserve(round.survivors.size());
    for (const std::size_t k : round.survivors) {
      survivor_weights_.push_back(weights_[round.participants[k]]);
    }
    // Reduced through the sanctioned helper.
    const double weight_sum = tensor::sum(survivor_weights_);
    // x_{t+1} = anchor + Σ survivors (w_n / Σw) (decoded delta_n),
    // ascending device order (determinism contract).
    tensor::copy(anchor_, x_next_);
    for (const std::size_t k : round.survivors) {
      tensor::axpy(weights_[round.participants[k]] / weight_sum,
                   round.uploads[k], x_next_);
    }
    // Reliable downlink: every device adopts the consensus and updates its
    // control variate against its own x̂ (a crashed device's x̂ is its
    // unchanged x_n).
    const double p_over_gamma = options_.skip_prob / options_.step_size;
    for_each_device([&](std::size_t n) {
      const std::span<double> hn = view(h_, n);
      const std::span<double> xn = view(x_, n);
      for (std::size_t i = 0; i < dim_; ++i) {
        hn[i] += p_over_gamma * (x_next_[i] - xn[i]);
      }
      tensor::copy(x_next_, xn);
    });
    tensor::copy(x_next_, anchor_);
    return {.broadcast = fed_.num_devices(),
            .grad_evals = refresh_anchor_gradients()};
  }

  // x̄_t = Σ_n (D_n/D) x_n — the iterate ProxSkip's analysis tracks; equals
  // the broadcast model at communication rounds. Serial ascending
  // accumulation.
  std::span<const double> eval_point() override {
    tensor::fill(xbar_, 0.0);
    for (std::size_t n = 0; n < fed_.num_devices(); ++n) {
      tensor::axpy(weights_[n], view(x_, n), xbar_);
    }
    return xbar_;
  }

 private:
  std::span<double> view(std::vector<double>& slab, std::size_t n) const {
    return std::span<double>(slab).subspan(n * dim_, dim_);
  }

  template <typename F>
  void for_each_device(const F& f) const {
    util::ThreadPool& pool = util::ThreadPool::global();
    if (options_.parallel && pool.size() > 1) {
      pool.parallel_for(0, fed_.num_devices(), f);
    } else {
      for (std::size_t n = 0; n < fed_.num_devices(); ++n) f(n);
    }
  }

  // ∇F_n(anchor) for every device, the SVRG reference, recorded for the
  // local steps until the next communication; returns its cost.
  std::size_t refresh_anchor_gradients() {
    for_each_device([&](std::size_t n) {
      (void)model_->record_gradient(anchor_, fed_.train[n],
                                    view(anchor_grad_, n), records_[n]);
    });
    return total_samples_;
  }

  std::shared_ptr<const nn::Model> model_;
  const data::FederatedDataset& fed_;
  const ProxSkipVROptions& options_;
  std::size_t dim_;
  std::vector<double> weights_;  // D_n / D
  std::size_t total_samples_ = 0;
  std::vector<double> anchor_;
  std::vector<double> x_;            // local iterates
  std::vector<double> h_;            // control variates
  std::vector<double> anchor_grad_;  // ∇F_n(anchor), SVRG
  std::vector<nn::GradientRecord> records_;  // per device, at anchor_
  std::vector<double> x_next_;
  std::vector<double> xbar_;
  std::vector<double> survivor_weights_;
};

}  // namespace

fl::TrainingTrace run_proxskip_vr(std::shared_ptr<const nn::Model> model,
                                  const data::FederatedDataset& fed,
                                  const ProxSkipVROptions& options,
                                  const std::string& name,
                                  std::optional<std::vector<double>> w0) {
  FEDVR_CHECK_MSG(model != nullptr, "model must not be null");
  FEDVR_CHECK_MSG(fed.num_devices() >= 1, "need at least one device");
  options.validate();
  fl::TrainerOptions engine;
  engine.rounds = options.iterations;
  engine.seed = options.seed;
  engine.timing = options.timing;
  engine.eval_every = options.eval_every;
  engine.eval_initial = options.eval_initial;
  engine.target_accuracy = options.target_accuracy;
  engine.comm = options.comm;
  engine.faults = options.faults;
  engine.parallel = options.parallel;
  const fl::Trainer trainer(model, fed, engine);
  ProxSkipVRPolicy policy(model, fed, options);
  // One local step per iteration: tau = 1 in eq. 19.
  return trainer.run(policy, 1, name, std::move(w0));
}

}  // namespace fedvr::core
