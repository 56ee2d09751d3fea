// Flat-vector math: the currency of the federated algorithms.
//
// Model parameters, gradients, and variance-reduction directions all travel
// as flat std::vector<double>/std::span<double>. These kernels are the inner
// loop of every solver, so they are written as tight scalar loops the
// compiler can vectorize, with spans per the Core Guidelines (no raw
// pointer+length pairs in interfaces).
//
// None of these helpers allocate: every function writes through
// caller-provided spans, so how much capacity a buffer keeps is decided by
// its owner (a solver workspace, an accumulator slab), never here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fedvr::tensor {

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha
void scal(double alpha, std::span<double> x);

/// <x, y>
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// ||x||_2
[[nodiscard]] double nrm2(std::span<const double> x);

/// ||x||_2^2 (avoids the sqrt+square round trip in convergence checks)
[[nodiscard]] double nrm2_squared(std::span<const double> x);

/// ||x - y||_2^2
[[nodiscard]] double squared_distance(std::span<const double> x,
                                      std::span<const double> y);

/// dst = src (sizes must match)
void copy(std::span<const double> src, std::span<double> dst);

/// out = x - y
void sub(std::span<const double> x, std::span<const double> y,
         std::span<double> out);

/// out = x + y
void add(std::span<const double> x, std::span<const double> y,
         std::span<double> out);

/// Sets every element to v.
void fill(std::span<double> x, double v);

/// acc += w * x  with acc zero-initialized by the caller: the weighted
/// aggregation on Algorithm 1 line 12.
void accumulate_weighted(double w, std::span<const double> x,
                         std::span<double> acc);

/// Σ x_i, accumulated serially in ascending index order. The sanctioned
/// scalar reduction for device/update collections: callers gather the
/// per-device values and reduce here, so the accumulation order is pinned
/// in one audited place (see the fp-reduction-in-seam analyzer rule).
[[nodiscard]] double sum(std::span<const double> x);

/// acc + Σ w_i · v_i, taking acc += w_i · v_i serially for i ascending: the
/// scalar companion of accumulate_weighted for weighted means over
/// per-device values (e.g. the global loss Σ_n p_n F_n). A sum folded over
/// consecutive waves of values has the bits of one call over all of them.
[[nodiscard]] double weighted_sum_onto(double acc, std::span<const double> w,
                                       std::span<const double> v);

/// out = (x - y) + z in one pass: the SVRG direction
/// v_t = grad f_i(w_t) - grad f_i(w_0) + v_0 (paper eq. (8b)).
void diff_plus(std::span<const double> x, std::span<const double> y,
               std::span<const double> z, std::span<double> out);

/// acc = (acc + x) - y in one pass: the SARAH update
/// v_t = v_{t-1} + grad f_i(w_t) - grad f_i(w_{t-1}) (paper eq. (8a)).
void add_diff(std::span<const double> x, std::span<const double> y,
              std::span<double> acc);

/// One proximal gradient step with the closed-form prox of
/// h_s(w) = (mu/2)||w - anchor||^2 (paper eq. (10)), in one pass:
///   out = prox_{eta h}(w - eta v)
///       = (eta*mu / (1 + eta*mu)) anchor + (1 / (1 + eta*mu)) (w - eta v).
/// v = 0 gives the bare prox of w. out may alias w or v.
void prox_gradient_step(std::span<const double> w, std::span<const double> v,
                        std::span<const double> anchor, double eta, double mu,
                        std::span<double> out);

}  // namespace fedvr::tensor
