// An independent reference for ProxSkip-VR: core/proxskip.h's pseudocode
// written out with plain loops, with no thread pool, comm::Channel or
// fl::Trainer. On a full-participation, fault-free run over a dense float64
// channel, run_proxskip_vr must reproduce every row's train_loss (taken at
// x̄ = Σ_n w_n x_n), the final parameters and the wire bytes:
//   * the shared coin of iteration t is fork(seed, 0, t, kComm).uniform() < p;
//   * device n draws min(B, D_n) indices below(D_n) from
//     fork(seed, n + 1, t, kSampling);
//   * x̂_n = x_n − γ(∇f_B(x_n) − ∇f_B(anchor) + ∇F_n(anchor) − h_n);
//   * on heads, x⁺ = anchor + Σ_n (w_n/Σw)(x̂_n − (γ/p)h_n − anchor), then
//     h_n += (p/γ)(x⁺ − x̂_n), x_n = anchor = x⁺ and ∇F_n(anchor) is
//     recomputed; on tails x_n = x̂_n.
// The model's loss and gradient calls are shared with the engine; every
// other operation is the reference's own. The quadratic model's gradient
// is linear, so its x̄ does not depend on the control variates h_n; the
// logistic cases are the ones that check them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "comm/message.h"
#include "core/proxskip.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "testing/quadratic_model.h"
#include "util/rng.h"

namespace fedvr::core {
namespace {

struct ReferenceRun {
  std::vector<double> train_loss;    // at x̄ after iteration t = 0..T
  std::vector<std::size_t> heads;    // communicating iterations up to t
  std::vector<double> final_params;  // x̄ after iteration T
};

ReferenceRun reference_proxskip(const nn::Model& model,
                                const data::FederatedDataset& fed,
                                const ProxSkipVROptions& o,
                                const std::vector<double>& w0) {
  const std::size_t devices = fed.num_devices();
  const std::size_t dim = model.num_parameters();
  const double gamma = o.step_size;
  const double p = o.skip_prob;
  std::size_t total = 0;
  for (const auto& ds : fed.train) total += ds.size();
  std::vector<double> w(devices);  // w_n = D_n / D
  for (std::size_t n = 0; n < devices; ++n) {
    w[n] = static_cast<double>(fed.train[n].size()) /
           static_cast<double>(total);
  }

  std::vector<double> anchor = w0;
  std::vector<std::vector<double>> x(devices, w0);
  std::vector<std::vector<double>> h(devices, std::vector<double>(dim, 0.0));
  std::vector<std::vector<double>> anchor_grad(devices,
                                               std::vector<double>(dim));
  const auto refresh_anchor_grads = [&] {
    for (std::size_t n = 0; n < devices; ++n) {
      (void)model.full_gradient(anchor, fed.train[n], anchor_grad[n]);
    }
  };
  std::vector<double> xbar(dim);
  ReferenceRun run;
  std::size_t heads = 0;
  const auto record = [&] {
    std::fill(xbar.begin(), xbar.end(), 0.0);
    for (std::size_t n = 0; n < devices; ++n) {
      for (std::size_t i = 0; i < dim; ++i) xbar[i] += w[n] * x[n][i];
    }
    double loss = 0.0;
    for (std::size_t n = 0; n < devices; ++n) {
      loss += w[n] * model.full_loss(xbar, fed.train[n]);
    }
    run.train_loss.push_back(loss);
    run.heads.push_back(heads);
  };

  refresh_anchor_grads();
  record();
  std::vector<double> g(dim);
  std::vector<double> g_anchor(dim);
  std::vector<double> x_plus(dim);
  for (std::size_t t = 1; t <= o.iterations; ++t) {
    for (std::size_t n = 0; n < devices; ++n) {
      const data::Dataset& ds = fed.train[n];
      util::Rng rng = util::fork(o.seed, n + 1, t, util::stream::kSampling);
      std::vector<std::size_t> batch(std::min(o.batch_size, ds.size()));
      for (std::size_t& i : batch) i = rng.below(ds.size());
      (void)model.loss_and_gradient(x[n], ds, batch, g);
      (void)model.loss_and_gradient(anchor, ds, batch, g_anchor);
      for (std::size_t i = 0; i < dim; ++i) {
        const double v = g[i] - g_anchor[i] + anchor_grad[n][i];
        x[n][i] = x[n][i] - gamma * (v - h[n][i]);
      }
    }
    util::Rng coin = util::fork(o.seed, 0, t, util::stream::kComm);
    if (coin.uniform() < p) {
      ++heads;
      double weight_sum = 0.0;
      for (std::size_t n = 0; n < devices; ++n) weight_sum += w[n];
      x_plus = anchor;
      for (std::size_t n = 0; n < devices; ++n) {
        for (std::size_t i = 0; i < dim; ++i) {
          const double proposal = x[n][i] - (gamma / p) * h[n][i];
          x_plus[i] += (w[n] / weight_sum) * (proposal - anchor[i]);
        }
      }
      for (std::size_t n = 0; n < devices; ++n) {
        for (std::size_t i = 0; i < dim; ++i) {
          h[n][i] += (p / gamma) * (x_plus[i] - x[n][i]);
        }
        x[n] = x_plus;
      }
      anchor = x_plus;
      refresh_anchor_grads();
    }
    record();
  }
  run.final_params = xbar;
  return run;
}

data::FederatedDataset quadratic_fed() {
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < 4; ++d) {
    const double center = 0.75 * static_cast<double>(d) - 1.0;
    fed.train.push_back(
        testing::quadratic_dataset(9 + 2 * d, 5, center, 0.5, 30 + d));
    fed.test.push_back(testing::quadratic_dataset(4, 5, center, 0.5, 40 + d));
  }
  return fed;
}

data::FederatedDataset classification_fed() {
  data::SyntheticConfig cfg;
  cfg.num_devices = 4;
  cfg.dim = 6;
  cfg.num_classes = 3;
  cfg.min_samples = 12;
  cfg.max_samples = 30;
  cfg.seed = 5;
  return data::make_synthetic(cfg);
}

// Runs run_proxskip_vr and the reference on one model at one p and
// compares every row, the final parameters and the wire bytes.
void expect_engine_matches_reference(bool logistic, double skip_prob) {
  const data::FederatedDataset fed =
      logistic ? classification_fed() : quadratic_fed();
  const std::shared_ptr<const nn::Model> model =
      logistic ? std::shared_ptr<const nn::Model>(
                     nn::make_logistic_regression(6, 3))
               : std::make_shared<testing::QuadraticModel>(5);
  std::vector<double> w0(model->num_parameters());
  for (std::size_t i = 0; i < w0.size(); ++i) {
    w0[i] = 0.125 * static_cast<double>(i % 7) - 0.375;
  }
  ProxSkipVROptions o;
  o.iterations = 30;
  o.seed = 17;
  o.step_size = logistic ? 0.2 : 0.1;
  o.skip_prob = skip_prob;
  o.batch_size = 4;
  o.eval_every = 1;
  o.eval_initial = true;

  const fl::TrainingTrace trace = run_proxskip_vr(model, fed, o, "ref", w0);
  const ReferenceRun want = reference_proxskip(*model, fed, o, w0);

  const auto close = [](double got, double ref) {
    return std::abs(got - ref) <= 1e-12 * std::abs(ref);
  };
  const std::size_t frame =
      comm::kHeaderBytes + model->num_parameters() * sizeof(double);
  ASSERT_EQ(trace.rounds.size(), o.iterations + 1);
  for (std::size_t t = 0; t <= o.iterations; ++t) {
    const fl::RoundMetrics& row = trace.rounds[t];
    EXPECT_EQ(row.round, t);
    EXPECT_TRUE(close(row.train_loss, want.train_loss[t]))
        << "t=" << t << " engine " << row.train_loss << " reference "
        << want.train_loss[t];
    const std::size_t bytes = want.heads[t] * fed.num_devices() * frame;
    EXPECT_EQ(row.uplink_bytes, bytes) << "t=" << t;
    EXPECT_EQ(row.downlink_bytes, bytes) << "t=" << t;
  }
  ASSERT_EQ(trace.final_parameters.size(), want.final_params.size());
  for (std::size_t i = 0; i < want.final_params.size(); ++i) {
    EXPECT_TRUE(close(trace.final_parameters[i], want.final_params[i]))
        << "i=" << i << " engine " << trace.final_parameters[i]
        << " reference " << want.final_params[i];
  }
  // p = 1 communicates every iteration; p = 0.3 must both skip and
  // communicate, or the case would not test the skip path.
  const std::size_t heads = want.heads.back();
  if (skip_prob == 1.0) {
    EXPECT_EQ(heads, o.iterations);
  } else {
    EXPECT_GT(heads, 0u);
    EXPECT_LT(heads, o.iterations);
  }
}

TEST(ProxSkipReference, QuadraticCommunicatingEveryIteration) {
  expect_engine_matches_reference(/*logistic=*/false, 1.0);
}

TEST(ProxSkipReference, QuadraticSkippingCommunication) {
  expect_engine_matches_reference(/*logistic=*/false, 0.3);
}

TEST(ProxSkipReference, LogisticCommunicatingEveryIteration) {
  expect_engine_matches_reference(/*logistic=*/true, 1.0);
}

TEST(ProxSkipReference, LogisticSkippingCommunication) {
  expect_engine_matches_reference(/*logistic=*/true, 0.3);
}

}  // namespace
}  // namespace fedvr::core
