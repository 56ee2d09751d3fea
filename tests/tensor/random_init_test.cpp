#include "tensor/random_init.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fedvr::tensor {
namespace {

using fedvr::util::Rng;

TEST(RandomInit, UniformStaysInRange) {
  Rng rng(2);
  std::vector<double> x(10000);
  fill_uniform(rng, x, -1.0, 2.0);
  for (double v : x) {
    EXPECT_GE(v, -1.0);
    EXPECT_LT(v, 2.0);
  }
}

TEST(RandomInit, GlorotBoundsMatchFanInFanOut) {
  Rng rng(3);
  std::vector<double> x(10000);
  const std::size_t fan_in = 100, fan_out = 50;
  fill_glorot_uniform(rng, x, fan_in, fan_out);
  const double a = std::sqrt(6.0 / (fan_in + fan_out));
  double max_abs = 0.0;
  for (double v : x) max_abs = std::max(max_abs, std::abs(v));
  EXPECT_LE(max_abs, a);
  EXPECT_GT(max_abs, 0.9 * a);  // bound is actually approached
}

TEST(RandomInit, IsDeterministicPerSeed) {
  Rng a(7), b(7);
  std::vector<double> xa(100), xb(100);
  fill_glorot_uniform(a, xa, 10, 10);
  fill_glorot_uniform(b, xb, 10, 10);
  EXPECT_EQ(xa, xb);
}

}  // namespace
}  // namespace fedvr::tensor
