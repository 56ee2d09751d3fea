#include "tensor/kernels.h"

#include "check/check.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace fedvr::tensor {
namespace {

using fedvr::util::Error;
using fedvr::util::Rng;

// Naive reference GEMM for property tests.
std::vector<double> ref_gemm(Trans ta, Trans tb, std::size_t m, std::size_t n,
                             std::size_t k, const std::vector<double>& a,
                             const std::vector<double>& b) {
  auto A = [&](std::size_t i, std::size_t p) {
    return ta == Trans::kNo ? a[i * k + p] : a[p * m + i];
  };
  auto B = [&](std::size_t p, std::size_t j) {
    return tb == Trans::kNo ? b[p * n + j] : b[j * k + p];
  };
  std::vector<double> c(m * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += A(i, p) * B(p, j);
      c[i * n + j] = acc;
    }
  }
  return c;
}

TEST(Gemm, SmallKnownProduct) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const std::vector<double> a = {1, 2, 3, 4};
  const std::vector<double> b = {5, 6, 7, 8};
  std::vector<double> c(4, 0.0);
  gemm_packed(Trans::kNo, Trans::kNo, 2, 2, 2, 1.0, a, b, 0.0, c);
  EXPECT_DOUBLE_EQ(c[0], 19);
  EXPECT_DOUBLE_EQ(c[1], 22);
  EXPECT_DOUBLE_EQ(c[2], 43);
  EXPECT_DOUBLE_EQ(c[3], 50);
}

TEST(Gemm, AlphaBetaCombine) {
  const std::vector<double> a = {1, 0, 0, 1};  // identity
  const std::vector<double> b = {2, 3, 4, 5};
  std::vector<double> c = {10, 10, 10, 10};
  gemm_packed(Trans::kNo, Trans::kNo, 2, 2, 2, 2.0, a, b, 0.5, c);
  // c = 2*b + 0.5*10
  EXPECT_DOUBLE_EQ(c[0], 9);
  EXPECT_DOUBLE_EQ(c[1], 11);
  EXPECT_DOUBLE_EQ(c[2], 13);
  EXPECT_DOUBLE_EQ(c[3], 15);
}

TEST(Gemm, BetaZeroIgnoresExistingC) {
  const std::vector<double> a = {1};
  const std::vector<double> b = {1};
  std::vector<double> c = {123456.0};
  gemm_packed(Trans::kNo, Trans::kNo, 1, 1, 1, 1.0, a, b, 0.0, c);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
}

struct GemmCase {
  Trans ta;
  Trans tb;
  std::size_t m, n, k;
};

class GemmProperty : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmProperty, MatchesNaiveReference) {
  const auto [ta, tb, m, n, k] = GetParam();
  Rng rng(m * 1000 + n * 100 + k * 10 +
          static_cast<std::size_t>(ta == Trans::kYes) * 2 +
          static_cast<std::size_t>(tb == Trans::kYes));
  std::vector<double> a(m * k), b(k * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  std::vector<double> c(m * n, 0.0);
  gemm_packed(ta, tb, m, n, k, 1.0, a, b, 0.0, c);
  const auto ref = ref_gemm(ta, tb, m, n, k, a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-10 * (1.0 + std::abs(ref[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposeAndShapeCombos, GemmProperty,
    ::testing::Values(GemmCase{Trans::kNo, Trans::kNo, 3, 4, 5},
                      GemmCase{Trans::kYes, Trans::kNo, 3, 4, 5},
                      GemmCase{Trans::kNo, Trans::kYes, 3, 4, 5},
                      GemmCase{Trans::kYes, Trans::kYes, 3, 4, 5},
                      GemmCase{Trans::kNo, Trans::kNo, 1, 1, 1},
                      GemmCase{Trans::kNo, Trans::kNo, 16, 16, 16},
                      GemmCase{Trans::kYes, Trans::kNo, 7, 2, 9},
                      GemmCase{Trans::kNo, Trans::kYes, 2, 13, 1},
                      GemmCase{Trans::kYes, Trans::kYes, 5, 5, 8}));

TEST(Gemm, StridedCRegion) {
  // Write a 2x2 product into the top-left of a 2x4 buffer (ldc = 4).
  const std::vector<double> a = {1, 0, 0, 1};
  const std::vector<double> b = {1, 2, 3, 4};
  std::vector<double> c(8, -1.0);
  gemm(Trans::kNo, Trans::kNo, 2, 2, 2, 1.0, a, 2, b, 2, 0.0, c, 4);
  EXPECT_DOUBLE_EQ(c[0], 1);
  EXPECT_DOUBLE_EQ(c[1], 2);
  EXPECT_DOUBLE_EQ(c[2], -1);  // untouched
  EXPECT_DOUBLE_EQ(c[4], 3);
  EXPECT_DOUBLE_EQ(c[5], 4);
}

TEST(Gemm, TooSmallStorageThrows) {
  if (!check::active()) GTEST_SKIP() << "fedvr::check inactive";
  const std::vector<double> a = {1, 2, 3};  // needs 4 for 2x2
  const std::vector<double> b = {1, 2, 3, 4};
  std::vector<double> c(4);
  EXPECT_THROW(gemm_packed(Trans::kNo, Trans::kNo, 2, 2, 2, 1.0, a, b, 0.0,
                           c),
               Error);
}

TEST(ArgmaxRows, PicksFirstMaximum) {
  const std::vector<double> x = {0, 5, 5, 1,   // -> 1 (first of ties)
                                 9, 2, 3, 4};  // -> 0
  std::vector<std::size_t> out(2);
  argmax_rows(2, 4, x, out);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(out[1], 0u);
}

TEST(AddBiasRows, AddsPerColumn) {
  std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> bias = {10, 20};
  add_bias_rows(2, 2, x, bias);
  EXPECT_DOUBLE_EQ(x[0], 11);
  EXPECT_DOUBLE_EQ(x[1], 22);
  EXPECT_DOUBLE_EQ(x[2], 13);
  EXPECT_DOUBLE_EQ(x[3], 24);
}

TEST(SumRows, ComputesColumnSums) {
  const std::vector<double> dy = {1, 2, 3, 4, 5, 6};
  std::vector<double> g(3, 99.0);
  sum_rows(2, 3, dy, g);
  EXPECT_DOUBLE_EQ(g[0], 5);
  EXPECT_DOUBLE_EQ(g[1], 7);
  EXPECT_DOUBLE_EQ(g[2], 9);
}

// The conv2d backward helpers. Shapes straddle the 16-element transpose
// tile: smaller than one tile, exactly one, and ragged edges on both axes.
struct RowsCols {
  std::size_t rows, cols;
};
constexpr RowsCols kTileShapes[] = {{1, 1}, {3, 5}, {16, 16}, {17, 33},
                                    {40, 7}};

std::vector<double> normals(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal() * 100.0;
  return v;
}

TEST(Transpose, MatchesIndexDefinitionAcrossTileEdges) {
  for (const auto [rows, cols] : kTileShapes) {
    const std::vector<double> in = normals(rows * cols, rows * 100 + cols);
    std::vector<double> out(rows * cols, -1.0);
    transpose(rows, cols, in, out);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        ASSERT_EQ(out[j * rows + i], in[i * cols + j])
            << rows << "x" << cols << " at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(AddTransposed, AddsTransposeOntoExistingValues) {
  for (const auto [rows, cols] : kTileShapes) {
    // in is (cols x rows); out is (rows x cols) and keeps what it held.
    const std::vector<double> in = normals(rows * cols, rows + cols);
    const std::vector<double> before = normals(rows * cols, rows * cols);
    std::vector<double> out = before;
    add_transposed(rows, cols, in, out);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        ASSERT_EQ(out[i * cols + j], before[i * cols + j] + in[j * rows + i])
            << rows << "x" << cols << " at (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(AddRowSums, AddsAscendingRowSumsOntoExistingValues) {
  // Magnitudes spread over six decades, so any other summation order
  // rounds differently; the contract is the serial ascending one.
  for (const std::size_t cols : {1, 7, 64, 257}) {
    const std::size_t rows = 5;
    std::vector<double> m = normals(rows * cols, cols);
    for (std::size_t e = 0; e < m.size(); ++e) {
      m[e] *= std::pow(10.0, static_cast<double>(e % 7) - 3.0);
    }
    const std::vector<double> before = normals(rows, cols + 1);
    std::vector<double> out = before;
    add_row_sums(rows, cols, m, out);
    for (std::size_t i = 0; i < rows; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < cols; ++j) acc += m[i * cols + j];
      EXPECT_EQ(out[i], before[i] + acc) << "cols=" << cols << " row " << i;
    }
  }
}

TEST(KernelShapes, RowHelpersRejectMismatchedExtents) {
  if (!check::active()) GTEST_SKIP() << "fedvr::check inactive";
  const std::vector<double> x6(6, 1.0);
  std::vector<double> y6(6), y5(5), y3(3), y2(2);
  std::vector<std::size_t> idx2(2), idx3(3);
  // (2 x 3) matrices with one operand of the wrong extent.
  EXPECT_THROW(argmax_rows(2, 3, x6, idx3), Error);
  EXPECT_THROW(argmax_rows(2, 3, std::span<const double>(x6).first(5), idx2),
               Error);
  EXPECT_THROW(add_bias_rows(2, 3, y6, y2), Error);
  EXPECT_THROW(add_bias_rows(2, 3, y5, y3), Error);
  EXPECT_THROW(sum_rows(2, 3, x6, y2), Error);
  EXPECT_THROW(transpose(2, 3, x6, y5), Error);
  EXPECT_THROW(add_transposed(2, 3, x6, y5), Error);
  EXPECT_THROW(add_row_sums(2, 3, x6, y3), Error);
}

}  // namespace
}  // namespace fedvr::tensor
