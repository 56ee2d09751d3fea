// Randomized oracle sweep for the GEMM kernels: every result is
// compared against a naive triple-loop reference across all four transpose
// combos, strided leading dimensions, degenerate shapes (m/n/k in {0,1}),
// non-unit alpha/beta, and shapes on both sides of every path-selection
// boundary — both with runtime checks on (default) and off, since the
// kernels must not depend on check-side effects. The last tests pin the
// determinism contract: bit-identical C for pool sizes 1 and 3, and for
// every kernel variant (ISA level) the host supports.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.h"
#include "tensor/kernel_dispatch.h"
#include "tensor/kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedvr::tensor {
namespace {

double ref_at(Trans t, const std::vector<double>& m, std::size_t ld,
              std::size_t i, std::size_t p) {
  return t == Trans::kNo ? m[i * ld + p] : m[p * ld + i];
}

struct GemmCase {
  std::size_t m, n, k;
};

// Degenerate shapes, remainder-heavy shapes around the register tile, and
// shapes large enough to take the blocked parallel path. Then both sides of
// each path-selection boundary in kernels.cpp (the transpose combo decides
// which path a shape can take at all):
//  * dot path (kNo x kYes, m*n <= 4096, k >= 128): k = 127/128/129, and
//    m*n = 4096 / 4097; Dense's forward and eval-chunk shapes;
//  * A^T*B path (kYes x kNo, m <= 60, m*n*k >= 32768): m = 59/60/61, and
//    volumes just under / at / over 32768; Dense's dW, and a k spanning two
//    256-deep chunks;
//  * small path (everything else under 32768): a 60 -> 10 Dense layer's
//    forward at batch 8, its dW, and eval shards of 25 and 40 rows.
const GemmCase kShapes[] = {
    {0, 0, 0},     {0, 5, 3},     {4, 0, 3},      {4, 5, 0},
    {1, 1, 1},     {2, 3, 1},     {5, 1, 7},      {17, 9, 3},
    {23, 31, 19},  {40, 48, 56},  {70, 65, 72},   {1, 50, 1},
    {61, 263, 129}, {128, 61, 300},
    // dot path
    {5, 7, 127},   {5, 7, 128},   {5, 7, 129},    {64, 64, 130},
    {17, 241, 130}, {32, 10, 784}, {64, 10, 784},  {25, 32, 784},
    {1, 10, 131},
    // A^T*B path
    {59, 41, 40},  {60, 41, 40},  {61, 41, 40},   {8, 64, 63},
    {8, 64, 64},   {8, 65, 64},   {10, 784, 32},  {10, 37, 300},
    // small path
    {8, 10, 60},   {10, 60, 8},   {25, 10, 60},   {40, 10, 60},
};

void sweep_gemm() {
  util::Rng rng(20240805);
  const std::pair<double, double> coeffs[] = {
      {1.0, 0.0}, {0.5, 1.0}, {2.0, -0.25}};
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      for (const GemmCase& s : kShapes) {
        for (std::size_t extra : {std::size_t{0}, std::size_t{3}}) {
          for (const auto& [alpha, beta] : coeffs) {
            const std::size_t a_rows = ta == Trans::kNo ? s.m : s.k;
            const std::size_t a_cols = ta == Trans::kNo ? s.k : s.m;
            const std::size_t b_rows = tb == Trans::kNo ? s.k : s.n;
            const std::size_t b_cols = tb == Trans::kNo ? s.n : s.k;
            const std::size_t lda = a_cols + extra;
            const std::size_t ldb = b_cols + extra;
            const std::size_t ldc = s.n + extra;
            std::vector<double> a(a_rows * lda), b(b_rows * ldb),
                c(s.m * ldc);
            for (auto& v : a) v = rng.normal();
            for (auto& v : b) v = rng.normal();
            for (auto& v : c) v = rng.normal();
            const std::vector<double> c0 = c;
            gemm(ta, tb, s.m, s.n, s.k, alpha, a, lda, b, ldb, beta, c, ldc);
            const double tol = 1e-12 * static_cast<double>(s.k + 1);
            for (std::size_t i = 0; i < s.m; ++i) {
              for (std::size_t j = 0; j < s.n; ++j) {
                double acc = 0.0;
                for (std::size_t p = 0; p < s.k; ++p) {
                  acc += ref_at(ta, a, lda, i, p) * ref_at(tb, b, ldb, p, j);
                }
                const double want = alpha * acc + beta * c0[i * ldc + j];
                ASSERT_NEAR(c[i * ldc + j], want,
                            tol * (1.0 + std::fabs(want)))
                    << "m=" << s.m << " n=" << s.n << " k=" << s.k
                    << " ta=" << static_cast<int>(ta)
                    << " tb=" << static_cast<int>(tb) << " extra=" << extra
                    << " alpha=" << alpha << " beta=" << beta << " at (" << i
                    << "," << j << ")";
              }
            }
            // Padding columns beyond n must be untouched.
            for (std::size_t i = 0; i < s.m; ++i) {
              for (std::size_t j = s.n; j < ldc; ++j) {
                ASSERT_EQ(c[i * ldc + j], c0[i * ldc + j])
                    << "clobbered C padding at (" << i << "," << j << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(GemmOracle, MatchesNaiveReference) { sweep_gemm(); }

// The kernels must be pure compute: identical behavior with the runtime
// invariant checks toggled off (the shipped-Release configuration).
TEST(GemmOracle, MatchesNaiveReferenceWithChecksDisabled) {
  const bool previous = check::set_enabled(false);
  sweep_gemm();
  check::set_enabled(previous);
}

// Runs every kShapes case in every transpose combo and alpha/beta pair with
// strided leading dimensions, and returns all the C matrices end to end.
// The last pair's alpha is no power of two, so a path that rounds
// alpha * acc before adding it to C shows up in the bits.
std::vector<double> sweep_outputs() {
  util::Rng rng(99);
  const std::pair<double, double> coeffs[] = {
      {1.0, 0.0}, {0.5, 1.0}, {2.0, -0.25}, {-0.7, 1.3}};
  std::vector<double> out;
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      for (const GemmCase& s : kShapes) {
        for (const auto& [alpha, beta] : coeffs) {
          const std::size_t a_rows = ta == Trans::kNo ? s.m : s.k;
          const std::size_t b_rows = tb == Trans::kNo ? s.k : s.n;
          const std::size_t lda = (ta == Trans::kNo ? s.k : s.m) + 3;
          const std::size_t ldb = (tb == Trans::kNo ? s.n : s.k) + 3;
          const std::size_t ldc = s.n + 3;
          std::vector<double> a(a_rows * lda), b(b_rows * ldb), c(s.m * ldc);
          for (auto& v : a) v = rng.normal();
          for (auto& v : b) v = rng.normal();
          for (auto& v : c) v = rng.normal();
          gemm(ta, tb, s.m, s.n, s.k, alpha, a, lda, b, ldb, beta, c, ldc);
          out.insert(out.end(), c.begin(), c.end());
        }
      }
    }
  }
  return out;
}

// Determinism contract: every path must be bit-identical across pool
// sizes, because the k-accumulation order of every C element is fixed by
// the path's constants, never the thread partition.
TEST(GemmOracle, BitIdenticalAcrossPoolSizes) {
  const std::size_t m = 300, n = 200, k = 150;
  util::Rng rng(3);
  std::vector<double> a(m * k), b(k * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  std::vector<double> c1(m * n, 0.0), c3(m * n, 0.0);
  util::ThreadPool::reset_global(1);
  gemm_packed(Trans::kNo, Trans::kYes, m, n, k, 1.0, a, b, 0.0, c1);
  const std::vector<double> sweep1 = sweep_outputs();
  util::ThreadPool::reset_global(3);
  gemm_packed(Trans::kNo, Trans::kYes, m, n, k, 1.0, a, b, 0.0, c3);
  const std::vector<double> sweep3 = sweep_outputs();
  util::ThreadPool::reset_global(0);
  EXPECT_EQ(0, std::memcmp(c1.data(), c3.data(), c1.size() * sizeof(double)));
  EXPECT_EQ(check::hash_span(c1), check::hash_span(c3));
  ASSERT_EQ(sweep1.size(), sweep3.size());
  EXPECT_EQ(0, std::memcmp(sweep1.data(), sweep3.data(),
                           sweep1.size() * sizeof(double)));
}

// The pool-size contract holds on every variant, not only the one gemm
// picks: the blocked path, the only one that fans out, splits C into the
// same disjoint row blocks in each.
TEST(GemmOracle, BitIdenticalAcrossPoolSizesOnEveryVariant) {
  using detail::KernelIsa;
  const std::size_t m = 300, n = 200, k = 150;
  util::Rng rng(5);
  std::vector<double> a(m * k), b(k * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (KernelIsa isa :
       {KernelIsa::kPortable, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!detail::kernel_isa_supported(isa)) continue;
    const KernelIsa saved = detail::set_kernel_isa(isa);
    std::vector<double> c1(m * n, 0.0), c3(m * n, 0.0);
    util::ThreadPool::reset_global(1);
    gemm_packed(Trans::kNo, Trans::kNo, m, n, k, -0.7, a, b, 0.0, c1);
    util::ThreadPool::reset_global(3);
    gemm_packed(Trans::kNo, Trans::kNo, m, n, k, -0.7, a, b, 0.0, c3);
    util::ThreadPool::reset_global(0);
    detail::set_kernel_isa(saved);
    EXPECT_EQ(0, std::memcmp(c1.data(), c3.data(), c1.size() * sizeof(double)))
        << "variant " << static_cast<int>(isa);
  }
}

// gemm runs the widest variant the host supports unless a test switched
// it, and set_kernel_isa hands back the variant it replaced.
TEST(KernelVariants, GemmStartsOnTheWidestSupportedVariant) {
  using detail::KernelIsa;
  const KernelIsa widest =
      detail::kernel_isa_supported(KernelIsa::kAvx512) ? KernelIsa::kAvx512
      : detail::kernel_isa_supported(KernelIsa::kAvx2) ? KernelIsa::kAvx2
                                                        : KernelIsa::kPortable;
  const KernelIsa active = detail::set_kernel_isa(KernelIsa::kPortable);
  detail::set_kernel_isa(active);
  EXPECT_EQ(active, widest);
}

TEST(KernelVariants, SetKernelIsaReturnsTheVariantItReplaced) {
  using detail::KernelIsa;
  const KernelIsa original = detail::set_kernel_isa(KernelIsa::kPortable);
  EXPECT_TRUE(detail::kernel_isa_supported(original));
  EXPECT_EQ(detail::set_kernel_isa(original), KernelIsa::kPortable);
  EXPECT_EQ(detail::set_kernel_isa(original), original);
}

// Every variant the host supports must give the same bits on every path:
// each path's tile is written once over an 8-lane vector (std::fma lanes,
// two ymm or one zmm), and the blocked microkernels differ only in tile
// shape. Sanitizer builds run the AVX2 and AVX-512 variants too.
TEST(GemmOracle, BitIdenticalAcrossKernelVariants) {
  using detail::KernelIsa;
  std::vector<double> first;
  int variants = 0;
  for (KernelIsa isa :
       {KernelIsa::kPortable, KernelIsa::kAvx2, KernelIsa::kAvx512}) {
    if (!detail::kernel_isa_supported(isa)) continue;
    const KernelIsa saved = detail::set_kernel_isa(isa);
    const std::vector<double> out = sweep_outputs();
    detail::set_kernel_isa(saved);
    if (variants++ == 0) {
      first = out;
      continue;
    }
    ASSERT_EQ(first.size(), out.size());
    EXPECT_EQ(0, std::memcmp(first.data(), out.data(),
                             out.size() * sizeof(double)))
        << "variant " << static_cast<int>(isa) << " differs from the first";
  }
  if (variants < 2) GTEST_SKIP() << "only one kernel variant on this host";
}

}  // namespace
}  // namespace fedvr::tensor
