// Per-element arithmetic of the two unpacked GEMM paths, checked bit for bit
// against scalar std::fma references written from the documented rules
// (src/tensor/kernels.cpp), on every kernel variant the host supports:
//
//  * dot path (A untransposed, B transposed, m*n <= 4096, k >= 128): lane l
//    is an FMA chain over the k indices congruent to l mod 8, the k % 8 tail
//    folds into lanes 0..k%8-1, the lanes are summed in ascending order into
//    s, then c = fma(alpha, s, c). A row's result must not depend on how
//    many rows share the call or where it sits among them.
//  * A^T*B path (A transposed, B untransposed, small m): per 256-deep chunk
//    of k, an FMA chain from +0 over the chunk, then c = fma(alpha, acc, c).
#include <algorithm>
#include <cmath>
#include <cstring>
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

// Dense's dW += dy^T * x shapes, including a k that spans two chunks and
// column counts that are not a multiple of any vector width. The variants
// that have the path must match the FMA-chain reference bit for bit; the
// portable variant runs these shapes on the blocked path, whose arithmetic
// is the compiler's.
TEST(GemmAtbPath, MatchesChunkedFmaChainReference) {
  struct Shape {
    std::size_t m, n, k;
  };
  const Shape shapes[] = {{10, 784, 32}, {7, 61, 77}, {10, 33, 300},
                          {1, 784, 64},  {60, 41, 40}, {13, 101, 513}};
  const double alpha = -0.7;  // not a power of two: alpha * acc rounds
  const double beta = 1.25;
  util::Rng rng(2718);
  bool checked = false;
  for (const Shape& s : shapes) {
    std::vector<double> a(s.k * s.m), b(s.k * s.n), c0(s.m * s.n);
    for (auto& v : a) v = rng.normal();
    for (auto& v : b) v = rng.normal();
    for (auto& v : c0) v = rng.normal();
    std::vector<double> want(c0.size());
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        double c = beta * c0[i * s.n + j];
        for (std::size_t p0 = 0; p0 < s.k; p0 += 256) {
          double acc = 0.0;
          for (std::size_t p = p0; p < std::min(s.k, p0 + 256); ++p) {
            acc = std::fma(a[p * s.m + i], b[p * s.n + j], acc);
          }
          c = std::fma(alpha, acc, c);
        }
        want[i * s.n + j] = c;
      }
    }
    for_each_variant([&](KernelIsa isa) {
      if (isa == KernelIsa::kPortable) return;
      std::vector<double> c = c0;
      gemm_packed(Trans::kYes, Trans::kNo, s.m, s.n, s.k, alpha, a, b, beta,
                  c);
      for (std::size_t e = 0; e < c.size(); ++e) {
        ASSERT_TRUE(same_bits(c[e], want[e]))
            << s.m << "x" << s.n << "x" << s.k << " element " << e;
      }
      checked = true;
    });
  }
  if (!checked) GTEST_SKIP() << "no AVX2 or AVX-512 kernel variant here";
}

}  // namespace
}  // namespace fedvr::tensor
