#include "tensor/vecops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace fedvr::tensor {
namespace {

using fedvr::util::Error;
using fedvr::util::Rng;

TEST(Vecops, AxpyAccumulates) {
  const std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {10, 20, 30};
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12);
  EXPECT_DOUBLE_EQ(y[1], 24);
  EXPECT_DOUBLE_EQ(y[2], 36);
}

TEST(Vecops, AxpySizeMismatchThrows) {
  const std::vector<double> x = {1, 2};
  std::vector<double> y = {1};
  EXPECT_THROW(axpy(1.0, x, y), Error);
}

TEST(Vecops, ScalMultiplies) {
  std::vector<double> x = {1, -2, 3};
  scal(-2.0, x);
  EXPECT_DOUBLE_EQ(x[0], -2);
  EXPECT_DOUBLE_EQ(x[1], 4);
  EXPECT_DOUBLE_EQ(x[2], -6);
}

TEST(Vecops, DotMatchesManual) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 4 - 10 + 18);
}

TEST(Vecops, Nrm2OfUnitVectors) {
  const std::vector<double> e = {0, 1, 0};
  EXPECT_DOUBLE_EQ(nrm2(e), 1.0);
  const std::vector<double> v = {3, 4};
  EXPECT_DOUBLE_EQ(nrm2(v), 5.0);
  EXPECT_DOUBLE_EQ(nrm2_squared(v), 25.0);
}

TEST(Vecops, SquaredDistance) {
  const std::vector<double> x = {1, 2};
  const std::vector<double> y = {4, 6};
  EXPECT_DOUBLE_EQ(squared_distance(x, y), 9 + 16);
}

TEST(Vecops, CopySubAddFill) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {10, 20, 30};
  std::vector<double> out(3);
  copy(x, out);
  EXPECT_EQ(out, x);
  sub(y, x, out);
  EXPECT_DOUBLE_EQ(out[1], 18);
  add(y, x, out);
  EXPECT_DOUBLE_EQ(out[2], 33);
  fill(out, 7.0);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(Vecops, SumIsSerialAscending) {
  // sum() is the sanctioned scalar reduction (fp-reduction-in-seam): its
  // contract is bit-identical equality with the serial ascending loop it
  // replaced at call sites like proxskip's survivor-weight total.
  Rng rng(11);
  std::vector<double> x(257);
  for (auto& v : x) v = rng.normal() * 1e3;
  double reference = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) reference += x[i];
  EXPECT_EQ(sum(x), reference);  // bit-exact, not just EXPECT_DOUBLE_EQ
}

TEST(Vecops, SumOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(sum({}), 0.0);
  EXPECT_DOUBLE_EQ(weighted_sum_onto(0.0, {}, {}), 0.0);
}

TEST(Vecops, WeightedSumMatchesAscendingLoopBitExact) {
  // weighted_sum_onto() pins the accumulation order the trainer's
  // global-loss reduction has always used: acc += w[i] * v[i], ascending i.
  Rng rng(13);
  std::vector<double> w(129), v(129);
  for (auto& e : w) e = rng.uniform();
  for (auto& e : v) e = rng.normal();
  double reference = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) reference += w[i] * v[i];
  EXPECT_EQ(weighted_sum_onto(0.0, w, v), reference);
  EXPECT_EQ(weighted_sum_onto(0.0, w, v), dot(w, v));
}

TEST(Vecops, WeightedSumOntoContinuesTheAscendingSum) {
  // Folding uneven waves onto a running total gives the bits of one call
  // over the whole range.
  Rng rng(17);
  std::vector<double> w(131), v(131);
  for (auto& e : w) e = rng.uniform();
  for (auto& e : v) e = rng.normal();
  const std::span<const double> ws(w), vs(v);
  double total = 0.0;
  for (std::size_t base = 0; base < w.size(); base += 32) {
    const std::size_t count = std::min<std::size_t>(32, w.size() - base);
    total = weighted_sum_onto(total, ws.subspan(base, count),
                              vs.subspan(base, count));
  }
  EXPECT_EQ(total, weighted_sum_onto(0.0, w, v));
  // A nonzero start is the first addend.
  double reference = 1.5;
  for (std::size_t i = 0; i < w.size(); ++i) reference += w[i] * v[i];
  EXPECT_EQ(weighted_sum_onto(1.5, w, v), reference);
}

TEST(Vecops, WeightedSumSizeMismatchThrows) {
  const std::vector<double> w = {1, 2};
  const std::vector<double> v = {1};
  EXPECT_THROW((void)weighted_sum_onto(0.0, w, v), Error);
}

TEST(Vecops, AccumulateWeightedIsWeightedSum) {
  const std::vector<double> w1 = {1, 1};
  const std::vector<double> w2 = {3, 5};
  std::vector<double> acc(2, 0.0);
  accumulate_weighted(0.25, w1, acc);
  accumulate_weighted(0.75, w2, acc);
  EXPECT_DOUBLE_EQ(acc[0], 0.25 + 2.25);
  EXPECT_DOUBLE_EQ(acc[1], 0.25 + 3.75);
}

// --- The eq. (10) prox: prox_gradient_step with a zero direction. ---

void prox(std::span<const double> x, std::span<const double> anchor,
          double eta, double mu, std::span<double> out) {
  const std::vector<double> zero(x.size(), 0.0);
  prox_gradient_step(x, zero, anchor, eta, mu, out);
}

TEST(Prox, MuZeroIsIdentity) {
  const std::vector<double> x = {1.5, -2.0};
  const std::vector<double> anchor = {0.0, 0.0};
  std::vector<double> out(2);
  prox(x, anchor, 0.1, 0.0, out);
  EXPECT_DOUBLE_EQ(out[0], 1.5);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Prox, LargeMuPullsToAnchor) {
  const std::vector<double> x = {10.0};
  const std::vector<double> anchor = {2.0};
  std::vector<double> out(1);
  prox(x, anchor, 1.0, 1e9, out);
  EXPECT_NEAR(out[0], 2.0, 1e-6);
}

TEST(Prox, MatchesArgminDefinition) {
  // prox minimizes g(w) = (mu/2)||w-anchor||^2 + (1/(2 eta))||w-x||^2.
  // Verify the first-order condition mu(w-anchor) + (w-x)/eta = 0 holds.
  Rng rng(3);
  const double eta = 0.05, mu = 2.0;
  std::vector<double> x(8), anchor(8), out(8);
  for (auto& v : x) v = rng.normal();
  for (auto& v : anchor) v = rng.normal();
  prox(x, anchor, eta, mu, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double foc = mu * (out[i] - anchor[i]) + (out[i] - x[i]) / eta;
    EXPECT_NEAR(foc, 0.0, 1e-10);
  }
}

TEST(Prox, MatchesPaperClosedFormEq10) {
  // Paper eq. (10): prox(x) = eta/(1+eta mu) * (mu anchor + x/eta).
  const double eta = 0.2, mu = 1.5;
  const std::vector<double> x = {0.7};
  const std::vector<double> anchor = {-0.3};
  std::vector<double> out(1);
  prox(x, anchor, eta, mu, out);
  const double expected = eta / (1.0 + eta * mu) * (mu * -0.3 + 0.7 / eta);
  EXPECT_NEAR(out[0], expected, 1e-14);
}

TEST(Prox, IsNonExpansive) {
  // ||prox(x) - prox(y)|| <= ||x - y|| for any prox of a convex function.
  Rng rng(5);
  std::vector<double> x(16), y(16), anchor(16), px(16), py(16);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  for (auto& v : anchor) v = rng.normal();
  prox(x, anchor, 0.3, 4.0, px);
  prox(y, anchor, 0.3, 4.0, py);
  EXPECT_LE(std::sqrt(squared_distance(px, py)),
            std::sqrt(squared_distance(x, y)) + 1e-12);
}

TEST(Prox, InvalidParamsThrow) {
  const std::vector<double> x = {1.0};
  const std::vector<double> anchor = {0.0};
  std::vector<double> out(1);
  EXPECT_THROW(prox(x, anchor, 0.0, 1.0, out), Error);
  EXPECT_THROW(prox(x, anchor, -0.1, 1.0, out), Error);
  EXPECT_THROW(prox(x, anchor, 0.1, -1.0, out), Error);
}

// --- The solver's one-pass updates keep the bits of the multi-pass
// sequences they replaced. ---

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// Normal draws with exact and signed zeros mixed in.
std::vector<double> mixed_vector(std::size_t n, Rng& rng) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = i % 7 == 0 ? 0.0 : i % 11 == 0 ? -0.0 : rng.normal();
  }
  return x;
}

TEST(FusedPasses, DiffPlusMatchesCopyAxpyAxpy) {
  Rng rng(11);
  const auto g = mixed_vector(257, rng);
  const auto g_ref = mixed_vector(257, rng);
  const auto v0 = mixed_vector(257, rng);
  std::vector<double> want(g.size());
  copy(g, want);
  axpy(-1.0, g_ref, want);
  axpy(1.0, v0, want);
  std::vector<double> got(g.size(), 7.0);
  diff_plus(g, g_ref, v0, got);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i])) << i;
  }
}

TEST(FusedPasses, AddDiffMatchesAxpyAxpy) {
  Rng rng(12);
  const auto g = mixed_vector(257, rng);
  const auto g_ref = mixed_vector(257, rng);
  const auto v = mixed_vector(257, rng);
  std::vector<double> want = v;
  axpy(1.0, g, want);
  axpy(-1.0, g_ref, want);
  std::vector<double> got = v;
  add_diff(g, g_ref, got);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i])) << i;
  }
}

TEST(FusedPasses, ProxGradientStepMatchesCopyAxpyProx) {
  Rng rng(13);
  const auto w = mixed_vector(257, rng);
  const auto v = mixed_vector(257, rng);
  const auto anchor = mixed_vector(257, rng);
  for (const double eta : {0.3, 0.05 / 1.6, 1.0}) {
    for (const double mu : {0.0, 0.1, 2.5}) {
      // The sequence the solver ran before: step = w; step += -eta v; then
      // (eta mu / (1 + eta mu)) anchor + (1 / (1 + eta mu)) step.
      std::vector<double> step(w.size());
      copy(w, step);
      axpy(-eta, v, step);
      const double denom = 1.0 + eta * mu;
      const double anchor_coef = eta * mu / denom;
      const double x_coef = 1.0 / denom;
      std::vector<double> got(w.size());
      prox_gradient_step(w, v, anchor, eta, mu, got);
      std::vector<double> in_place = w;  // out aliasing w
      prox_gradient_step(in_place, v, anchor, eta, mu, in_place);
      for (std::size_t i = 0; i < w.size(); ++i) {
        const double want = anchor_coef * anchor[i] + x_coef * step[i];
        EXPECT_EQ(bits(got[i]), bits(want)) << eta << " " << mu << " " << i;
        EXPECT_EQ(bits(in_place[i]), bits(want))
            << eta << " " << mu << " " << i;
      }
    }
  }
}

TEST(FusedPasses, SizeMismatchThrows) {
  const std::vector<double> a = {1, 2};
  const std::vector<double> b = {1};
  std::vector<double> out(2);
  EXPECT_THROW(diff_plus(a, b, a, out), Error);
  EXPECT_THROW(add_diff(a, b, out), Error);
  EXPECT_THROW(prox_gradient_step(a, b, a, 0.1, 0.1, out), Error);
}

}  // namespace
}  // namespace fedvr::tensor
