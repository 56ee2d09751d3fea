#include "tensor/vecops.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace fedvr::tensor {

namespace {
inline void check_same_size(std::span<const double> a,
                            std::span<const double> b) {
  FEDVR_CHECK_MSG(a.size() == b.size(),
                  "vector size mismatch: " << a.size() << " vs " << b.size());
}
}  // namespace

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  check_same_size(x, y);
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

double dot(std::span<const double> x, std::span<const double> y) {
  check_same_size(x, y);
  double acc = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

double nrm2_squared(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v * v;
  return acc;
}

double nrm2(std::span<const double> x) { return std::sqrt(nrm2_squared(x)); }

double squared_distance(std::span<const double> x,
                        std::span<const double> y) {
  check_same_size(x, y);
  double acc = 0.0;
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = x[i] - y[i];
    acc += d * d;
  }
  return acc;
}

void copy(std::span<const double> src, std::span<double> dst) {
  check_same_size(src, dst);
  std::copy(src.begin(), src.end(), dst.begin());
}

void sub(std::span<const double> x, std::span<const double> y,
         std::span<double> out) {
  check_same_size(x, y);
  check_same_size(x, out);
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] - y[i];
}

void add(std::span<const double> x, std::span<const double> y,
         std::span<double> out) {
  check_same_size(x, y);
  check_same_size(x, out);
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] + y[i];
}

void fill(std::span<double> x, double v) {
  std::fill(x.begin(), x.end(), v);
}

void accumulate_weighted(double w, std::span<const double> x,
                         std::span<double> acc) {
  axpy(w, x, acc);
}

double sum(std::span<const double> x) {
  double acc = 0.0;
  for (double v : x) acc += v;
  return acc;
}

double weighted_sum_onto(double acc, std::span<const double> w,
                         std::span<const double> v) {
  check_same_size(w, v);
  const std::size_t n = w.size();
  for (std::size_t i = 0; i < n; ++i) acc += w[i] * v[i];
  return acc;
}

void diff_plus(std::span<const double> x, std::span<const double> y,
               std::span<const double> z, std::span<double> out) {
  check_same_size(x, y);
  check_same_size(x, z);
  check_same_size(x, out);
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) out[i] = (x[i] - y[i]) + z[i];
}

void add_diff(std::span<const double> x, std::span<const double> y,
              std::span<double> acc) {
  check_same_size(x, y);
  check_same_size(x, acc);
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) acc[i] = (acc[i] + x[i]) - y[i];
}

void prox_gradient_step(std::span<const double> w, std::span<const double> v,
                        std::span<const double> anchor, double eta, double mu,
                        std::span<double> out) {
  check_same_size(w, v);
  check_same_size(w, anchor);
  check_same_size(w, out);
  FEDVR_CHECK_MSG(eta > 0.0, "prox step eta must be positive, got " << eta);
  FEDVR_CHECK_MSG(mu >= 0.0, "penalty mu must be nonnegative, got " << mu);
  // prox_{eta h}(x) = argmin_u (mu/2)||u-anchor||^2 + (1/2 eta)||u-x||^2
  //                 = (mu*eta*anchor + x) / (1 + eta*mu),
  // which is the paper's eq. (10) rearranged; mu = 0 reduces to identity.
  // x = w + (-eta)*v is the gradient step, kept in a register.
  const double neg_eta = -eta;
  const double denom = 1.0 + eta * mu;
  const double anchor_coef = eta * mu / denom;
  const double x_coef = 1.0 / denom;
  const std::size_t n = w.size();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = anchor_coef * anchor[i] + x_coef * (w[i] + neg_eta * v[i]);
  }
}

}  // namespace fedvr::tensor
