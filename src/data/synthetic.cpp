#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/kernels.h"
#include "util/rng.h"

namespace fedvr::data {

std::vector<std::size_t> power_law_sizes(std::size_t num_devices,
                                         std::size_t min_samples,
                                         std::size_t max_samples,
                                         double lognormal_sigma,
                                         std::uint64_t seed) {
  FEDVR_CHECK(num_devices > 0);
  FEDVR_CHECK_MSG(min_samples >= 2,
                  "need >= 2 samples per device for a train/test split");
  FEDVR_CHECK(max_samples >= min_samples);
  util::Rng rng = util::fork(seed, 0, 0, util::stream::kData);
  // Draw lognormal "masses" and map them into [min, max] by rank-preserving
  // rescaling, so a handful of devices get large shards (power-law tail).
  std::vector<double> mass(num_devices);
  double lo = 1e300, hi = -1e300;
  for (auto& m : mass) {
    m = rng.lognormal(0.0, lognormal_sigma);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  std::vector<std::size_t> sizes(num_devices);
  const double span_in = (hi > lo) ? (hi - lo) : 1.0;
  const double span_out = static_cast<double>(max_samples - min_samples);
  for (std::size_t k = 0; k < num_devices; ++k) {
    const double t = (mass[k] - lo) / span_in;
    sizes[k] = min_samples + static_cast<std::size_t>(std::llround(t * span_out));
  }
  return sizes;
}

Dataset make_synthetic_device(const SyntheticConfig& config,
                              std::size_t device, std::size_t num_samples) {
  const std::size_t d = config.dim;
  const std::size_t c = config.num_classes;
  util::Rng rng =
      util::fork(config.seed, device + 1, 0, util::stream::kData);

  // Device-level latent variables.
  const double u_k = rng.normal(0.0, std::sqrt(std::max(config.alpha, 0.0)));
  const double b_mean = rng.normal(0.0, std::sqrt(std::max(config.beta, 0.0)));
  std::vector<double> v(d);
  for (auto& vj : v) vj = rng.normal(b_mean, 1.0);

  // Device-local ground-truth model.
  std::vector<double> w_true(c * d);
  std::vector<double> b_true(c);
  for (auto& w : w_true) w = rng.normal(u_k, 1.0);
  for (auto& b : b_true) b = rng.normal(u_k, 1.0);

  // Diagonal covariance Sigma_jj = j^{-1.2}.
  std::vector<double> sigma_diag(d);
  for (std::size_t j = 0; j < d; ++j) {
    sigma_diag[j] = std::pow(static_cast<double>(j + 1), -1.2);
  }

  Dataset out(tensor::Shape({d}), num_samples, c);
  for (std::size_t i = 0; i < num_samples; ++i) {
    auto x = out.mutable_sample(i);
    for (std::size_t j = 0; j < d; ++j) {
      x[j] = rng.normal(v[j], std::sqrt(sigma_diag[j]));
    }
  }
  // Label every sample at once: y = argmax(W x + b). Labelling draws
  // nothing from the RNG, so drawing all features first changes no draw.
  std::vector<double> logits(num_samples * c);
  tensor::gemm_packed(tensor::Trans::kNo, tensor::Trans::kYes, num_samples, c,
                      d, 1.0, out.rows(0, num_samples), w_true, 0.0, logits);
  tensor::add_bias_rows(num_samples, c, logits, b_true);
  std::vector<std::size_t> pred(num_samples);
  tensor::argmax_rows(num_samples, c, logits, pred);
  for (std::size_t i = 0; i < num_samples; ++i) {
    out.set_label(i, static_cast<int>(pred[i]));
  }
  return out;
}

FederatedDataset make_synthetic_iid(const SyntheticConfig& config) {
  // One shared pool, carved into power-law shards: exactly the same model
  // and feature distribution everywhere.
  const auto sizes =
      power_law_sizes(config.num_devices, config.min_samples,
                      config.max_samples, config.lognormal_sigma, config.seed);
  std::size_t total = 0;
  for (auto s : sizes) total += s;
  const Dataset pool = make_synthetic_device(config, 0, total);
  FederatedDataset fed;
  fed.train.reserve(config.num_devices);
  fed.test.reserve(config.num_devices);
  std::size_t cursor = 0;
  for (std::size_t k = 0; k < config.num_devices; ++k) {
    std::vector<std::size_t> idx(sizes[k]);
    for (std::size_t i = 0; i < sizes[k]; ++i) idx[i] = cursor + i;
    cursor += sizes[k];
    Dataset local = pool.subset(idx);
    util::Rng split_rng =
        util::fork(config.seed, k + 1, 3, util::stream::kData);
    auto [train, test] = local.split(split_rng, config.train_fraction);
    fed.train.push_back(std::move(train));
    fed.test.push_back(std::move(test));
  }
  return fed;
}

FederatedDataset make_synthetic(const SyntheticConfig& config) {
  const auto sizes =
      power_law_sizes(config.num_devices, config.min_samples,
                      config.max_samples, config.lognormal_sigma, config.seed);
  FederatedDataset fed;
  fed.train.reserve(config.num_devices);
  fed.test.reserve(config.num_devices);
  for (std::size_t k = 0; k < config.num_devices; ++k) {
    Dataset local = make_synthetic_device(config, k, sizes[k]);
    util::Rng split_rng =
        util::fork(config.seed, k + 1, 1, util::stream::kData);
    auto [train, test] = local.split(split_rng, config.train_fraction);
    fed.train.push_back(std::move(train));
    fed.test.push_back(std::move(test));
  }
  return fed;
}

}  // namespace fedvr::data
