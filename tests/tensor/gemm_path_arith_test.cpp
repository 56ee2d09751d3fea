// Per-element arithmetic of the unpacked and small-product GEMM paths,
// checked bit for bit against scalar std::fma references written from the
// documented rules (src/tensor/kernels.cpp), on every kernel variant the
// host supports:
//
//  * dot path (A untransposed, B transposed, m*n <= 4096, k >= 128): lane l
//    is an FMA chain over the k indices congruent to l mod 8, the k % 8 tail
//    folds into lanes 0..k%8-1, the lanes are summed in ascending order into
//    s, then c = fma(alpha, s, c). A row's result must not depend on how
//    many rows share the call or where it sits among them.
//  * A^T*B path (A transposed, B untransposed, small m) and blocked path
//    (every other shape of at least 32^3 flops): per 256-deep chunk of k,
//    an FMA chain from +0 over the chunk, then c = fma(alpha, acc, c).
//  * small path (m*n*k < 32^3, any transposes, unless the dot path takes
//    it): from the beta-scaled C, c = fma(alpha * a_ip, b_pj, c) for p
//    ascending, alpha * a_ip rounded first.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernel_dispatch.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace fedvr::tensor {
namespace {

using detail::KernelIsa;

constexpr KernelIsa kIsas[] = {KernelIsa::kPortable, KernelIsa::kAvx2,
                               KernelIsa::kAvx512};

// Runs `body` once per variant this host supports, with gemm bound to it.
template <class Body>
void for_each_variant(Body body) {
  for (KernelIsa isa : kIsas) {
    if (!detail::kernel_isa_supported(isa)) continue;
    const KernelIsa saved = detail::set_kernel_isa(isa);
    SCOPED_TRACE(::testing::Message() << "variant " << static_cast<int>(isa));
    body(isa);
    detail::set_kernel_isa(saved);
  }
}

// c = fma(alpha, lane sum, c) for one dot-path element, from the rule.
double dot_reference(const double* a, const double* b, std::size_t k,
                     double alpha, double c) {
  double lanes[8] = {};
  const std::size_t k8 = k - k % 8;
  for (std::size_t p = 0; p < k8; ++p) {
    lanes[p % 8] = std::fma(a[p], b[p], lanes[p % 8]);
  }
  for (std::size_t p = k8; p < k; ++p) {
    lanes[p - k8] = std::fma(a[p], b[p], lanes[p - k8]);
  }
  double s = lanes[0];
  for (std::size_t l = 1; l < 8; ++l) s += lanes[l];
  return std::fma(alpha, s, c);
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

// Element (i, p) of op(M), M stored with row stride ld.
double op_at(Trans t, const std::vector<double>& m, std::size_t ld,
             std::size_t i, std::size_t p) {
  return t == Trans::kNo ? m[i * ld + p] : m[p * ld + i];
}

// A, B and C of one gemm call, filled from `rng`, with `extra` padding
// columns on every stored row.
struct Operands {
  std::size_t lda, ldb, ldc;
  std::vector<double> a, b, c;

  Operands(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
           std::size_t extra, util::Rng& rng)
      : lda((ta == Trans::kNo ? k : m) + extra),
        ldb((tb == Trans::kNo ? n : k) + extra),
        ldc(n + extra),
        a((ta == Trans::kNo ? m : k) * lda),
        b((tb == Trans::kNo ? k : n) * ldb),
        c(m * ldc) {
    for (auto& v : a) v = rng.normal();
    for (auto& v : b) v = rng.normal();
    for (auto& v : c) v = rng.normal();
  }
};

// Five input rows against an n x k weight matrix, as Dense's forward
// computes logits. Every contiguous batch of 1, 2, 3 or 5 rows must give
// each of its rows the bits that row gets alone, and those bits must be the
// reference's.
TEST(GemmDotPath, RowsBitIdenticalAloneAndInBatches) {
  constexpr std::size_t kRows = 5;
  const double alpha = 0.75;
  const double beta = -1.5;
  util::Rng rng(1415);
  for (std::size_t n : {1, 2, 7, 10}) {
    for (std::size_t k : {128, 131, 784}) {
      std::vector<double> x(kRows * k), w(n * k), c0(kRows * n);
      for (auto& v : x) v = rng.normal();
      for (auto& v : w) v = rng.normal();
      for (auto& v : c0) v = rng.normal();
      for_each_variant([&](KernelIsa) {
        for (std::size_t m : {1, 2, 3, 5}) {
          for (std::size_t first = 0; first + m <= kRows; ++first) {
            std::vector<double> c(c0.begin() + first * n,
                                  c0.begin() + (first + m) * n);
            gemm_packed(Trans::kNo, Trans::kYes, m, n, k, alpha,
                        std::span(x).subspan(first * k, m * k), w, beta, c);
            for (std::size_t r = 0; r < m; ++r) {
              const std::size_t row = first + r;
              for (std::size_t j = 0; j < n; ++j) {
                const double want =
                    dot_reference(&x[row * k], &w[j * k], k, alpha,
                                  beta * c0[row * n + j]);
                ASSERT_TRUE(same_bits(c[r * n + j], want))
                    << "row " << row << " of a batch of " << m
                    << " starting at " << first << ", n=" << n << " k=" << k
                    << " col " << j << ": got " << c[r * n + j] << " want "
                    << want;
              }
            }
          }
        }
      });
    }
  }
}

// The per-KC-chunk FMA chain. A^T*B path: Dense's dW += dy^T * x shapes,
// including a k that spans two chunks and column counts that are not a
// multiple of any vector width. Blocked path: the other transposes, m over
// the A^T*B path's 60, fleet_sampled's 64 x 10 x 60 eval chunk, a
// conv-shaped 16 x 576 x 72, a k over two chunks and more than one 60-row
// block. Every variant must match the reference bit for bit.
TEST(GemmAtbPath, MatchesChunkedFmaChainReference) {
  constexpr Trans kN = Trans::kNo;
  constexpr Trans kT = Trans::kYes;
  struct Case {
    Trans ta, tb;
    std::size_t m, n, k;
  };
  const Case cases[] = {
      // A^T*B path
      {kT, kN, 10, 784, 32}, {kT, kN, 7, 61, 77},   {kT, kN, 10, 33, 300},
      {kT, kN, 1, 784, 64},  {kT, kN, 60, 41, 40},  {kT, kN, 13, 101, 513},
      {kT, kN, 13, 36, 71},  // just over the 32^3 floor
      // blocked path
      {kN, kT, 64, 10, 60},  {kN, kN, 16, 576, 72}, {kT, kN, 61, 41, 40},
      {kT, kT, 20, 50, 513}, {kN, kN, 128, 61, 300}, {kN, kT, 70, 65, 72}};
  const double alpha = -0.7;  // not a power of two: alpha * acc rounds
  const double beta = 1.25;
  util::Rng rng(2718);
  for (const Case& s : cases) {
    const Operands in(s.ta, s.tb, s.m, s.n, s.k, 2, rng);
    std::vector<double> want = in.c;
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        double c = beta * in.c[i * in.ldc + j];
        for (std::size_t p0 = 0; p0 < s.k; p0 += 256) {
          double acc = 0.0;
          for (std::size_t p = p0; p < std::min(s.k, p0 + 256); ++p) {
            acc = std::fma(op_at(s.ta, in.a, in.lda, i, p),
                           op_at(s.tb, in.b, in.ldb, p, j), acc);
          }
          c = std::fma(alpha, acc, c);
        }
        want[i * in.ldc + j] = c;
      }
    }
    for_each_variant([&](KernelIsa) {
      std::vector<double> c = in.c;
      gemm(s.ta, s.tb, s.m, s.n, s.k, alpha, in.a, in.lda, in.b, in.ldb, beta,
           c, in.ldc);
      for (std::size_t e = 0; e < c.size(); ++e) {
        ASSERT_TRUE(same_bits(c[e], want[e]))
            << s.m << "x" << s.n << "x" << s.k
            << " ta=" << static_cast<int>(s.ta)
            << " tb=" << static_cast<int>(s.tb) << " element " << e;
      }
    });
  }
}

// Small-path shapes, each in all four transpose combinations, with and
// without padded rows, at alpha != 1 and beta in {0, 1, other}:
// fleet_sampled's Dense GEMMs (forward at batch 8, dW, eval shards of 25
// and 40, an anchor gradient's dW), rows and columns around the 4 x 16 and
// 4 x 8 tiles, and the near side of every path boundary: m*n*k just under
// 32^3, k = 127 under the dot path's 128, and m = 59 / 60 / 61 around the
// A^T*B path's m <= 60, which below the floor does not apply. The tests
// above cover the far sides (k = 128; 13 x 36 x 71 and m = 60 over the
// floor).
TEST(GemmSmallPath, MatchesFmaReference) {
  struct Shape {
    std::size_t m, n, k;
  };
  const Shape shapes[] = {
      {8, 10, 60},  {10, 60, 8},  {25, 10, 60}, {40, 10, 60}, {10, 60, 25},
      {1, 1, 1},    {3, 5, 7},    {4, 16, 9},   {5, 17, 3},   {7, 9, 11},
      {13, 36, 70}, {33, 41, 24}, {5, 7, 127},  {59, 9, 61},  {60, 9, 60},
      {61, 9, 59}};
  const std::pair<double, double> coeffs[] = {
      {-0.7, 0.0}, {1.3, 1.0}, {0.55, -1.25}};
  util::Rng rng(3141);
  for (const Shape& s : shapes) {
    ASSERT_LT(s.m * s.n * s.k, 32U * 32U * 32U);
    for (Trans ta : {Trans::kNo, Trans::kYes}) {
      for (Trans tb : {Trans::kNo, Trans::kYes}) {
        for (std::size_t extra : {std::size_t{0}, std::size_t{3}}) {
          const Operands in(ta, tb, s.m, s.n, s.k, extra, rng);
          for (const auto& [alpha, beta] : coeffs) {
            std::vector<double> want = in.c;
            for (std::size_t i = 0; i < s.m; ++i) {
              for (std::size_t j = 0; j < s.n; ++j) {
                double c = beta == 0.0 ? 0.0 : beta * in.c[i * in.ldc + j];
                for (std::size_t p = 0; p < s.k; ++p) {
                  c = std::fma(alpha * op_at(ta, in.a, in.lda, i, p),
                               op_at(tb, in.b, in.ldb, p, j), c);
                }
                want[i * in.ldc + j] = c;
              }
            }
            for_each_variant([&](KernelIsa) {
              std::vector<double> c = in.c;
              gemm(ta, tb, s.m, s.n, s.k, alpha, in.a, in.lda, in.b, in.ldb,
                   beta, c, in.ldc);
              for (std::size_t e = 0; e < c.size(); ++e) {
                ASSERT_TRUE(same_bits(c[e], want[e]))
                    << s.m << "x" << s.n << "x" << s.k
                    << " ta=" << static_cast<int>(ta)
                    << " tb=" << static_cast<int>(tb) << " extra=" << extra
                    << " alpha=" << alpha << " beta=" << beta << " element "
                    << e << ": got " << c[e] << " want " << want[e];
              }
            });
          }
        }
      }
    }
  }
}

// The blocked path's bits for a row do not depend on which rows share its
// call: rows [37, 101) of a 150-row product, computed on their own, sit at
// other positions in the 60-row blocks and the register tile's rows.
TEST(GemmBlockedPath, RowsBitIdenticalInAnyRowRange) {
  constexpr std::size_t kM = 150, kFirst = 37, kCount = 64;
  const double alpha = -0.7;
  util::Rng rng(4669);
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (std::size_t k : {72, 300}) {
      const std::size_t n = 41;
      const Operands in(ta, Trans::kNo, kM, n, k, 0, rng);
      // The row range of op(A), stored as the same transpose.
      std::vector<double> part(kCount * k);
      for (std::size_t i = 0; i < kCount; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
          const std::size_t at =
              ta == Trans::kNo ? i * k + p : p * kCount + i;
          part[at] = op_at(ta, in.a, in.lda, kFirst + i, p);
        }
      }
      for_each_variant([&](KernelIsa) {
        std::vector<double> whole(kM * n), rows(kCount * n);
        gemm_packed(ta, Trans::kNo, kM, n, k, alpha, in.a, in.b, 0.0, whole);
        gemm_packed(ta, Trans::kNo, kCount, n, k, alpha, part, in.b, 0.0,
                    rows);
        for (std::size_t e = 0; e < rows.size(); ++e) {
          ASSERT_TRUE(same_bits(rows[e], whole[kFirst * n + e]))
              << "ta=" << static_cast<int>(ta) << " k=" << k << " element "
              << e;
        }
      });
    }
  }
}

// At alpha = 1, beta = 0 and k <= 256, the small path's chain from +0 and
// the blocked path's one-chunk chain are the same FMAs, so a row of
// X * W^T has the same bits alone (small path) as in an 80-row batch
// (blocked path). data::make_synthetic_device labels its samples with one
// such product, and relies on it for labels that do not depend on how many
// samples a device has.
TEST(GemmSmallPath, RowsMatchTheBlockedPathAtUnitAlpha) {
  constexpr std::size_t kRows = 80;
  util::Rng rng(1618);
  for (std::size_t n : {7, 10}) {
    for (std::size_t k : {60, 127}) {
      ASSERT_GE(kRows * n * k, 32U * 32U * 32U);
      std::vector<double> x(kRows * k), w(n * k);
      for (auto& v : x) v = rng.normal();
      for (auto& v : w) v = rng.normal();
      for_each_variant([&](KernelIsa) {
        std::vector<double> batch(kRows * n);
        gemm_packed(Trans::kNo, Trans::kYes, kRows, n, k, 1.0, x, w, 0.0,
                    batch);
        for (std::size_t r = 0; r < kRows; ++r) {
          std::vector<double> alone(n);
          gemm_packed(Trans::kNo, Trans::kYes, 1, n, k, 1.0,
                      std::span(x).subspan(r * k, k), w, 0.0, alone);
          for (std::size_t j = 0; j < n; ++j) {
            ASSERT_TRUE(same_bits(alone[j], batch[r * n + j]))
                << "row " << r << " col " << j << " n=" << n << " k=" << k;
          }
        }
      });
    }
  }
}

// abt_rows_call_invariant(max_m, n, k) promises that the first m rows of
// X * W^T have the bits of the max_m-row product for every m <= max_m, so
// a row computed in a full-batch chunk equals that row computed in any
// smaller mini-batch (nn::FeedForwardModel replays recorded outputs on this
// promise). Where it says no, some row must indeed differ: the 512-row
// products take the blocked path, their single rows the dot path.
TEST(GemmRowsCallInvariant, HoldsWhereItSaysAndOnlyThere) {
  util::Rng rng(2718);
  std::size_t refused = 0;
  for (std::size_t max_m : {16, 64, 512}) {
    for (std::size_t n : {10, 62}) {
      for (std::size_t k : {40, 127, 128, 300, 784}) {
        std::vector<double> x(max_m * k), w(n * k);
        for (auto& v : x) v = rng.normal();
        for (auto& v : w) v = rng.normal();
        const bool invariant = abt_rows_call_invariant(max_m, n, k);
        refused += invariant ? 0 : 1;
        for_each_variant([&](KernelIsa) {
          std::vector<double> full(max_m * n);
          gemm_packed(Trans::kNo, Trans::kYes, max_m, n, k, 1.0, x, w, 0.0,
                      full);
          std::size_t differing = 0;
          for (std::size_t m : {std::size_t{1}, std::size_t{3},
                                std::size_t{8}, max_m / 2}) {
            std::vector<double> part(m * n);
            gemm_packed(Trans::kNo, Trans::kYes, m, n, k, 1.0,
                        std::span(x).first(m * k), w, 0.0, part);
            for (std::size_t e = 0; e < m * n; ++e) {
              differing += same_bits(part[e], full[e]) ? 0 : 1;
            }
          }
          if (invariant) {
            EXPECT_EQ(differing, 0U)
                << "max_m=" << max_m << " n=" << n << " k=" << k;
          } else {
            EXPECT_GT(differing, 0U)
                << "max_m=" << max_m << " n=" << n << " k=" << k;
          }
        });
      }
    }
  }
  EXPECT_EQ(refused, 6U);  // 512 rows at k >= 128
}

}  // namespace
}  // namespace fedvr::tensor
