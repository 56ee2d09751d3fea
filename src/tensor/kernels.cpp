#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "check/check.h"
#include "obs/registry.h"
#include "tensor/arena.h"
#include "tensor/kernel_dispatch.h"
#include "util/error.h"
#include "util/thread_pool.h"

// GCC on x86-64 builds the AVX2 and AVX-512 kernel variants from the target
// regions below; every other compiler (clang-tidy, the analyzer's libclang
// frontend) sees the portable variant only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define FEDVR_KERNEL_X86 1
#include <immintrin.h>
#endif

namespace fedvr::tensor {

namespace {

// ---- Blocked-GEMM parameters (rationale in DESIGN.md §10) ----
//
// The microkernel accumulates an MR x NR tile of C in registers while
// streaming a packed MR-wide sliver of A against an NR-wide sliver of B.
// A blocks (MC x KC, 128 KiB) target L2; B panels (KC x NC, 512 KiB) are
// shared read-only by all workers of one k-step. Every C element is summed
// over k in ascending KC-chunk order regardless of how row-blocks are
// scheduled onto threads, which is what keeps parallel runs bit-identical
// to serial ones. Per KC chunk, an element is an FMA chain from +0 over the
// chunk, then c = fma(alpha, acc, c). The register tile (3 x 12, or 5 x 24
// with AVX-512) only decides which elements share a microkernel call, never
// an element's operation order.
constexpr std::size_t kMc = 60;  // divisible by both MR shapes
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 256;

// Below this m*n*k volume the pack + dispatch overhead of the blocked path
// outweighs its cache wins; the small-product path runs instead. Selection
// depends only on the shape, never on the pool, so it cannot perturb
// determinism.
constexpr std::size_t kBlockedMinVolume = 32 * 32 * 32;

// ---- Dot-product GEMM path (small C, long k, both operands k-major) ----
//
// When A is untransposed and B is transposed, both operands stream
// unit-stride along k; when C is also small (Dense's 32 x 10 forward over
// 784 inputs, conv1's 25 x 32 dW), the blocked path has almost no operand
// reuse to exploit and spends most of its time packing. Each C element is
// computed directly as a register-resident dot product instead.
//
// Arithmetic, the same in every variant and at every tile position: lane l
// of 8 is an FMA chain from +0 over the k indices congruent to l modulo 8,
// ascending; the k % 8 tail indices fold into lanes 0..k%8-1; the lanes are
// summed in ascending order into s; then c = fma(alpha, s, c). An element's
// lanes are one vector V, so a row's result never depends on which other
// rows share its call or its tile.
constexpr std::size_t kDotMaxC = 4096;  // m * n at or below: C fits L1 easily
constexpr std::size_t kDotMinK = 128;   // long enough to amortize the reduce

// ---- Unpacked A^T * B path (small m: Dense's dW = dy^T * x) ----
//
// With few rows of C, the blocked path's packing of the whole k x n operand
// B on every call dominates (Dense's 10 x 784 dW re-packs the 32 x 784
// batch). This path reads A (stored k x m) and B (stored k x n) in place: a
// register tile of rows x column vectors of C walks each KC chunk of k,
// broadcasting A's elements against B's row vectors. Its per-element
// arithmetic is exactly the blocked microkernel's, so it returns the
// blocked path's bits for every shape it takes. At m <= kMc the blocked
// path runs one row block on one thread, so taking these shapes serially
// gives up no parallelism.
constexpr std::size_t kAtbMaxM = kMc;

// ---- Small-product path (m * n * k below kBlockedMinVolume) ----
//
// C (m x n) += alpha * A (m x k) * B (k x n), both operands untransposed
// (gemm packs a transposed one first). Arithmetic, the same in every variant
// and at every tile position: each element starts from the beta-scaled C and
// takes c = fma(alpha * a_ip, b_pj, c) for p ascending, alpha * a_ip rounded
// first. A tile holds rows x column vectors of C and masks the column edge;
// a row edge runs a shorter tile of the same loop, so an element's bits
// never depend on which tile it lands in or which rows share its call.
constexpr std::size_t kSmallTi = 4;  // rows per full tile; edges run 1-3

// Element (i, p) of op(A) stored with row stride ld.
inline double op_at(Trans trans, std::span<const double> m, std::size_t ld,
                    std::size_t i, std::size_t p) {
  return trans == Trans::kNo ? m[i * ld + p] : m[p * ld + i];
}

// Packs the transpose of a stored (cols x rows) matrix with row stride ld
// into `out` as a (rows x cols) row-major matrix. `out` is caller-provided
// storage of exactly rows * cols doubles.
void pack_transposed(std::size_t rows, std::size_t cols,
                     std::span<const double> src, std::size_t ld,
                     std::span<double> out) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      out[i * cols + j] = src[j * ld + i];
    }
  }
}

// Packs rows [i0, i0+ib) x depth [p0, p0+pb) of op(A) into mr_t-row groups:
// group g holds its mr_t rows interleaved per depth step (column-major
// within the group), padded with zeros past the last real row so the
// microkernel never branches on the row remainder.
void pack_a_block(Trans trans, std::size_t mr_t, std::span<const double> a,
                  std::size_t lda, std::size_t i0, std::size_t ib,
                  std::size_t p0, std::size_t pb, std::span<double> out) {
  const std::size_t groups = (ib + mr_t - 1) / mr_t;
  double* dst = out.data();
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t rows = std::min(mr_t, ib - g * mr_t);
    for (std::size_t p = 0; p < pb; ++p) {
      for (std::size_t r = 0; r < mr_t; ++r) {
        *dst++ = r < rows
                     ? op_at(trans, a, lda, i0 + g * mr_t + r, p0 + p)
                     : 0.0;
      }
    }
  }
}

// Packs depth [p0, p0+pb) x cols [j0, j0+jb) of op(B) into nr_t-column
// slivers, zero-padded past the last real column.
void pack_b_panel(Trans trans, std::size_t nr_t, std::span<const double> b,
                  std::size_t ldb, std::size_t p0, std::size_t pb,
                  std::size_t j0, std::size_t jb, std::span<double> out) {
  const std::size_t slivers = (jb + nr_t - 1) / nr_t;
  double* dst = out.data();
  for (std::size_t g = 0; g < slivers; ++g) {
    const std::size_t cols = std::min(nr_t, jb - g * nr_t);
    if (trans == Trans::kNo) {
      const double* src = b.data() + j0 + g * nr_t;
      for (std::size_t p = 0; p < pb; ++p) {
        const double* row = src + (p0 + p) * ldb;
        for (std::size_t c = 0; c < cols; ++c) *dst++ = row[c];
        for (std::size_t c = cols; c < nr_t; ++c) *dst++ = 0.0;
      }
    } else {
      for (std::size_t p = 0; p < pb; ++p) {
        for (std::size_t c = 0; c < nr_t; ++c) {
          *dst++ = c < cols
                       ? op_at(trans, b, ldb, p0 + p, j0 + g * nr_t + c)
                       : 0.0;
        }
      }
    }
  }
}

// ---- ISA variants ----
//
// One variant per ISA level: the blocked path's register tile and
// microkernel, and the dot, A^T*B and small-product kernels. Each variant's
// namespace defines an 8-lane vector type V with its operations and the
// tile sizes, then includes kernel_tiles.h, where every tile is written
// once. The AVX2 and AVX-512 namespaces sit in target regions, so their
// code uses those units whatever flags the file is built with, and no
// IFUNC resolver is involved: the variants run under ASan and TSan too.
// V's operations are always_inline, so Debug builds keep them inline too.
// gemm uses the host's best variant, fixed once per process (the choice is
// per machine, never per run or per thread); detail::set_kernel_isa lets
// tests run the others and compare their bits.
using PathKernel = void(std::size_t m, std::size_t n, std::size_t k,
                        double alpha, const double* a, std::size_t lda,
                        const double* b, std::size_t ldb, double* c,
                        std::size_t ldc);
using MicroKernel = void(std::size_t pb, const double* a, const double* b,
                         double alpha, double* c, std::size_t ldc,
                         std::size_t mr, std::size_t nr);

struct KernelShape {
  std::size_t mr;
  std::size_t nr;
  MicroKernel* kernel;
  PathKernel* dot;
  PathKernel* atb;
  PathKernel* small;
};

constexpr std::size_t kLanes = 8;  // doubles per V, in every variant

// Builds without the target regions and hosts without AVX2. Without
// hardware FMA, std::fma is a libm call.
namespace portable {

struct V {
  double l[kLanes];
};
using Mask = std::size_t;  // the number of leading lanes

[[gnu::always_inline]] inline V vzero() { return {}; }
[[gnu::always_inline]] inline V vset1(double x) {
  V r{};
  for (double& e : r.l) e = x;
  return r;
}
[[gnu::always_inline]] inline V vload(const double* p) {
  V r{};
  for (std::size_t i = 0; i < kLanes; ++i) r.l[i] = p[i];
  return r;
}
[[gnu::always_inline]] inline void vstore(double* p, const V& v) {
  for (std::size_t i = 0; i < kLanes; ++i) p[i] = v.l[i];
}
[[gnu::always_inline]] inline Mask vmask(std::size_t live) {
  return std::min(live, kLanes);
}
[[gnu::always_inline]] inline V vload_mask(const double* p, Mask m) {
  V r{};
  for (std::size_t i = 0; i < m; ++i) r.l[i] = p[i];
  return r;
}
[[gnu::always_inline]] inline void vstore_mask(double* p, Mask m, const V& v) {
  for (std::size_t i = 0; i < m; ++i) p[i] = v.l[i];
}
[[gnu::always_inline]] inline V vfma_mask(const V& a, const V& b, V c, Mask m) {
  for (std::size_t i = 0; i < m; ++i) {
    c.l[i] = std::fma(a.l[i], b.l[i], c.l[i]);
  }
  return c;
}
[[gnu::always_inline]] inline V vfma(const V& a, const V& b, const V& c) {
  return vfma_mask(a, b, c, kLanes);
}

constexpr std::size_t kMr = 3, kNr = 12;
constexpr std::size_t kDotTi = 1, kDotTj = 1;
constexpr std::size_t kAtbTi = 1, kAtbTv = 1;
constexpr std::size_t kSmallTv = 1;

#include "tensor/kernel_tiles.h"

}  // namespace portable

#if defined(FEDVR_KERNEL_X86)
#pragma GCC push_options
#pragma GCC target("arch=x86-64-v3")
// AVX2 + FMA: V is two ymm registers.
namespace avx2 {

struct V {
  __m256d lo, hi;
};
struct Mask {
  __m256i lo, hi;
};

[[gnu::always_inline]] inline V vzero() {
  return {_mm256_setzero_pd(), _mm256_setzero_pd()};
}
[[gnu::always_inline]] inline V vset1(double x) {
  return {_mm256_set1_pd(x), _mm256_set1_pd(x)};
}
[[gnu::always_inline]] inline V vload(const double* p) {
  return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}
[[gnu::always_inline]] inline void vstore(double* p, V v) {
  _mm256_storeu_pd(p, v.lo);
  _mm256_storeu_pd(p + 4, v.hi);
}
[[gnu::always_inline]] inline Mask vmask(std::size_t live) {
  const __m256i n =
      _mm256_set1_epi64x(static_cast<long long>(std::min(live, kLanes)));
  return {_mm256_cmpgt_epi64(n, _mm256_setr_epi64x(0, 1, 2, 3)),
          _mm256_cmpgt_epi64(n, _mm256_setr_epi64x(4, 5, 6, 7))};
}
[[gnu::always_inline]] inline V vload_mask(const double* p, Mask m) {
  return {_mm256_maskload_pd(p, m.lo), _mm256_maskload_pd(p + 4, m.hi)};
}
[[gnu::always_inline]] inline void vstore_mask(double* p, Mask m, V v) {
  _mm256_maskstore_pd(p, m.lo, v.lo);
  _mm256_maskstore_pd(p + 4, m.hi, v.hi);
}
[[gnu::always_inline]] inline V vfma(V a, V b, V c) {
  return {_mm256_fmadd_pd(a.lo, b.lo, c.lo),
          _mm256_fmadd_pd(a.hi, b.hi, c.hi)};
}
[[gnu::always_inline]] inline V vfma_mask(V a, V b, V c, Mask m) {
  const V r = vfma(a, b, c);
  return {_mm256_blendv_pd(c.lo, r.lo, _mm256_castsi256_pd(m.lo)),
          _mm256_blendv_pd(c.hi, r.hi, _mm256_castsi256_pd(m.hi))};
}

constexpr std::size_t kMr = 3, kNr = 12;       // 9 ymm accumulators
constexpr std::size_t kDotTi = 3, kDotTj = 2;  // 6 elements, 12 ymm
constexpr std::size_t kAtbTi = 5, kAtbTv = 1;  // 5 rows x 8 columns, 10 ymm
constexpr std::size_t kSmallTv = 1;            // 4 rows x 8 columns, 8 ymm

#include "tensor/kernel_tiles.h"

}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("arch=x86-64-v4")
// AVX-512: V is one zmm register.
namespace avx512 {

using V = __m512d;
using Mask = __mmask8;

[[gnu::always_inline]] inline V vzero() { return _mm512_setzero_pd(); }
[[gnu::always_inline]] inline V vset1(double x) { return _mm512_set1_pd(x); }
[[gnu::always_inline]] inline V vload(const double* p) {
  return _mm512_loadu_pd(p);
}
[[gnu::always_inline]] inline void vstore(double* p, V v) {
  _mm512_storeu_pd(p, v);
}
[[gnu::always_inline]] inline Mask vmask(std::size_t live) {
  return static_cast<Mask>((1U << std::min(live, kLanes)) - 1);
}
[[gnu::always_inline]] inline V vload_mask(const double* p, Mask m) {
  return _mm512_maskz_loadu_pd(m, p);
}
[[gnu::always_inline]] inline void vstore_mask(double* p, Mask m, V v) {
  _mm512_mask_storeu_pd(p, m, v);
}
[[gnu::always_inline]] inline V vfma(V a, V b, V c) {
  return _mm512_fmadd_pd(a, b, c);
}
[[gnu::always_inline]] inline V vfma_mask(V a, V b, V c, Mask m) {
  return _mm512_mask3_fmadd_pd(a, b, c, m);
}

constexpr std::size_t kMr = 5, kNr = 24;       // 15 zmm accumulators
constexpr std::size_t kDotTi = 5, kDotTj = 5;  // 25 elements, 25 zmm
constexpr std::size_t kAtbTi = 5, kAtbTv = 3;  // 5 rows x 24 columns, 15 zmm
constexpr std::size_t kSmallTv = 2;            // 4 rows x 16 columns, 8 zmm

#include "tensor/kernel_tiles.h"

}  // namespace avx512
#pragma GCC pop_options
#else
namespace avx2 = portable;
namespace avx512 = portable;
#endif

detail::KernelIsa best_isa() {
  for (auto isa : {detail::KernelIsa::kAvx512, detail::KernelIsa::kAvx2}) {
    if (detail::kernel_isa_supported(isa)) return isa;
  }
  return detail::KernelIsa::kPortable;
}

std::atomic<detail::KernelIsa>& active_isa() {
  static std::atomic<detail::KernelIsa> isa{best_isa()};
  return isa;
}

// Indexed by detail::KernelIsa.
constexpr KernelShape kShapes[] = {portable::kShape, avx2::kShape,
                                   avx512::kShape};

const KernelShape& kernel_shape() {
  return kShapes[static_cast<std::size_t>(active_isa().load())];
}

// The blocked path: jc (NC) -> pc (KC, serial so the k-order is fixed) ->
// parallel over ic (MC row-blocks of C, disjoint) -> jr (NR) -> ir (MR).
// beta has already been applied to C by the caller.
void gemm_blocked(const KernelShape& ks, Trans trans_a, Trans trans_b,
                  std::size_t m, std::size_t n, std::size_t k, double alpha,
                  std::span<const double> a, std::size_t lda,
                  std::span<const double> b, std::size_t ldb,
                  std::span<double> c, std::size_t ldc) {
  // One B panel per gemm call, sized for the largest (p0, j0) panel; each
  // iteration packs into its prefix. The panel is the calling thread's
  // scratch and is read-only for the workers (parallel_for's task handoff
  // publishes it); each worker packs its A blocks into its own.
  const std::size_t mr_t = ks.mr;
  const std::size_t nr_t = ks.nr;
  thread_local AlignedVector<double> b_panel_buf;
  const std::size_t max_pb = std::min(kKc, k);
  const auto b_panel = scratch(
      b_panel_buf, (std::min(kNc, n) + nr_t - 1) / nr_t * max_pb * nr_t);
  const std::size_t a_block_doubles = (kMc + mr_t - 1) / mr_t * max_pb * mr_t;
  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t jb = std::min(kNc, n - j0);
    const std::size_t slivers = (jb + nr_t - 1) / nr_t;
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t pb = std::min(kKc, k - p0);
      pack_b_panel(trans_b, nr_t, b, ldb, p0, pb, j0, jb,
                   b_panel.subspan(0, slivers * pb * nr_t));
      const double* b_packed = b_panel.data();
      const std::size_t iblocks = (m + kMc - 1) / kMc;
      util::ThreadPool::global().parallel_for(
          0, iblocks, [&](std::size_t blk) {
            thread_local AlignedVector<double> a_block_buf;
            const auto a_block = scratch(a_block_buf, a_block_doubles);
            const std::size_t i0 = blk * kMc;
            const std::size_t ib = std::min(kMc, m - i0);
            const std::size_t groups = (ib + mr_t - 1) / mr_t;
            pack_a_block(trans_a, mr_t, a, lda, i0, ib, p0, pb,
                         a_block.subspan(0, groups * pb * mr_t));
            for (std::size_t jg = 0; jg < slivers; ++jg) {
              const double* b_sliver = b_packed + jg * pb * nr_t;
              const std::size_t nr = std::min(nr_t, jb - jg * nr_t);
              for (std::size_t ig = 0; ig * mr_t < ib; ++ig) {
                const double* a_sliver = a_block.data() + ig * pb * mr_t;
                const std::size_t mr = std::min(mr_t, ib - ig * mr_t);
                ks.kernel(pb, a_sliver, b_sliver, alpha,
                          c.data() + (i0 + ig * mr_t) * ldc + j0 + jg * nr_t,
                          ldc, mr, nr);
              }
            }
          });
    }
  }
}

}  // namespace

namespace detail {

bool kernel_isa_supported(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return true;
#if defined(FEDVR_KERNEL_X86)
    case KernelIsa::kAvx2:
      return __builtin_cpu_supports("x86-64-v3") != 0;
    case KernelIsa::kAvx512:
      return __builtin_cpu_supports("x86-64-v4") != 0;
#endif
    default:
      return false;
  }
}

KernelIsa set_kernel_isa(KernelIsa isa) {
  FEDVR_CHECK_MSG(kernel_isa_supported(isa),
                  "set_kernel_isa: variant " << static_cast<int>(isa)
                                             << " not supported here");
  return active_isa().exchange(isa);
}

}  // namespace detail

void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, double alpha, std::span<const double> a,
          std::size_t lda, std::span<const double> b, std::size_t ldb,
          double beta, std::span<double> c, std::size_t ldc) {
  // Shape/stride preconditions via the gated fedvr::check layer: compiled
  // out under -DFEDVR_CHECKS=OFF, skippable at runtime via FEDVR_CHECKS=0.
  FEDVR_CHECK_PRE(ldc >= n, "gemm: ldc " << ldc << " < n " << n);
  [[maybe_unused]] const std::size_t a_rows = (trans_a == Trans::kNo) ? m : k;
  [[maybe_unused]] const std::size_t a_cols = (trans_a == Trans::kNo) ? k : m;
  [[maybe_unused]] const std::size_t b_rows = (trans_b == Trans::kNo) ? k : n;
  [[maybe_unused]] const std::size_t b_cols = (trans_b == Trans::kNo) ? n : k;
  FEDVR_CHECK_PRE(lda >= a_cols, "gemm: lda " << lda << " < " << a_cols);
  FEDVR_CHECK_PRE(ldb >= b_cols, "gemm: ldb " << ldb << " < " << b_cols);
  FEDVR_CHECK_PRE(a.size() >= (a_rows == 0 ? 0 : (a_rows - 1) * lda + a_cols),
                  "gemm: A storage " << a.size() << " too small");
  FEDVR_CHECK_PRE(b.size() >= (b_rows == 0 ? 0 : (b_rows - 1) * ldb + b_cols),
                  "gemm: B storage " << b.size() << " too small");
  FEDVR_CHECK_PRE(c.size() >= (m == 0 ? 0 : (m - 1) * ldc + n),
                  "gemm: C storage " << c.size() << " too small");

  // Scale C by beta first (handles beta == 0 without reading C garbage:
  // storage is always initialized doubles in this codebase).
  for (std::size_t i = 0; i < m; ++i) {
    double* row = c.data() + i * ldc;
    if (beta == 0.0) {
      std::fill(row, row + n, 0.0);
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
  FEDVR_OBS_COUNT("tensor.gemm.calls", 1);
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;
  FEDVR_OBS_COUNT("tensor.gemm.flops", 2ULL * m * n * k);

  // Shape-only path selection (see the path comments for why each exists);
  // the dot and A^T*B paths must be tested before the blocked one — their
  // shapes usually clear the blocked volume floor but run far faster
  // unpacked.
  const KernelShape& ks = kernel_shape();
  if (trans_a == Trans::kNo && trans_b == Trans::kYes && m * n <= kDotMaxC &&
      k >= kDotMinK) {
    ks.dot(m, n, k, alpha, a.data(), lda, b.data(), ldb, c.data(), ldc);
    return;
  }

  if (m * n * k >= kBlockedMinVolume) {
    if (trans_a == Trans::kYes && trans_b == Trans::kNo && m <= kAtbMaxM) {
      ks.atb(m, n, k, alpha, a.data(), lda, b.data(), ldb, c.data(), ldc);
    } else {
      gemm_blocked(ks, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c,
                   ldc);
    }
    return;
  }

  // Small-product path: a transposed operand is packed into untransposed
  // layout (linear cost against a cubic product) so one kernel serves all
  // four combinations; an untransposed one is read in place. The packs are
  // the calling thread's scratch.
  const double* a_ptr = a.data();
  const double* b_ptr = b.data();
  if (trans_a == Trans::kYes) {
    thread_local AlignedVector<double> a_pack_buf;
    const auto a_pack = scratch(a_pack_buf, m * k);
    pack_transposed(m, k, a, lda, a_pack);
    a_ptr = a_pack.data();
    lda = k;
  }
  if (trans_b == Trans::kYes) {
    thread_local AlignedVector<double> b_pack_buf;
    const auto b_pack = scratch(b_pack_buf, k * n);
    pack_transposed(k, n, b, ldb, b_pack);
    b_ptr = b_pack.data();
    ldb = n;
  }
  ks.small(m, n, k, alpha, a_ptr, lda, b_ptr, ldb, c.data(), ldc);
}

void gemm_packed(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, double alpha, std::span<const double> a,
                 std::span<const double> b, double beta, std::span<double> c) {
  const std::size_t lda = (trans_a == Trans::kNo) ? k : m;
  const std::size_t ldb = (trans_b == Trans::kNo) ? n : k;
  gemm(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, n);
}

bool abt_rows_call_invariant(std::size_t max_m, std::size_t n,
                             std::size_t k) {
  // Every m up to max_m takes the dot path, or none does: below kDotMinK a
  // row is the small path's FMA chain or the blocked path's, which agree at
  // unit alpha while k fits one KC block (kDotMinK < kKc).
  static_assert(kDotMinK <= kKc);
  return k < kDotMinK || max_m * n <= kDotMaxC;
}

void argmax_rows(std::size_t rows, std::size_t cols,
                 std::span<const double> x, std::span<std::size_t> out) {
  FEDVR_CHECK_SHAPE(x.size(), rows * cols);
  FEDVR_CHECK_SHAPE(out.size(), rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = x.data() + i * cols;
    std::size_t best = 0;
    for (std::size_t j = 1; j < cols; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = best;
  }
}

void add_bias_rows(std::size_t rows, std::size_t cols, std::span<double> x,
                   std::span<const double> bias) {
  FEDVR_CHECK_SHAPE(x.size(), rows * cols);
  FEDVR_CHECK_SHAPE(bias.size(), cols);
  for (std::size_t i = 0; i < rows; ++i) {
    double* row = x.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

void sum_rows(std::size_t rows, std::size_t cols, std::span<const double> dy,
              std::span<double> bias_grad) {
  FEDVR_CHECK_SHAPE(dy.size(), rows * cols);
  FEDVR_CHECK_SHAPE(bias_grad.size(), cols);
  std::fill(bias_grad.begin(), bias_grad.end(), 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = dy.data() + i * cols;
    for (std::size_t j = 0; j < cols; ++j) bias_grad[j] += row[j];
  }
}

// The transposes are blocked so both the read and the write side stay
// within a few cache lines per tile; 16 doubles = 2 lines.
constexpr std::size_t kTransposeTile = 16;

void transpose(std::size_t rows, std::size_t cols, std::span<const double> in,
               std::span<double> out) {
  FEDVR_CHECK_SHAPE(in.size(), rows * cols);
  FEDVR_CHECK_SHAPE(out.size(), rows * cols);
  for (std::size_t i0 = 0; i0 < rows; i0 += kTransposeTile) {
    const std::size_t ih = std::min(rows, i0 + kTransposeTile);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTransposeTile) {
      const std::size_t jh = std::min(cols, j0 + kTransposeTile);
      for (std::size_t i = i0; i < ih; ++i) {
        const double* src = in.data() + i * cols;
        for (std::size_t j = j0; j < jh; ++j) out[j * rows + i] = src[j];
      }
    }
  }
}

void add_transposed(std::size_t rows, std::size_t cols,
                    std::span<const double> in, std::span<double> out) {
  FEDVR_CHECK_SHAPE(in.size(), rows * cols);
  FEDVR_CHECK_SHAPE(out.size(), rows * cols);
  for (std::size_t i0 = 0; i0 < rows; i0 += kTransposeTile) {
    const std::size_t ih = std::min(rows, i0 + kTransposeTile);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTransposeTile) {
      const std::size_t jh = std::min(cols, j0 + kTransposeTile);
      for (std::size_t i = i0; i < ih; ++i) {
        double* dst = out.data() + i * cols;
        for (std::size_t j = j0; j < jh; ++j) dst[j] += in[j * rows + i];
      }
    }
  }
}

void add_row_sums(std::size_t rows, std::size_t cols,
                  std::span<const double> m, std::span<double> out) {
  FEDVR_CHECK_SHAPE(m.size(), rows * cols);
  FEDVR_CHECK_SHAPE(out.size(), rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = m.data() + i * cols;
    // Single serial ascending accumulator: the FP order the determinism
    // contract pins for the conv2d db partials.
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) acc += row[j];
    out[i] += acc;
  }
}

}  // namespace fedvr::tensor
