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

#if defined(FEDVR_KERNEL_HAS_CLONES)
#include <immintrin.h>

// Hand-written variants next to the FEDVR_KERNEL_CLONES ones.
#define FEDVR_TARGET_AVX2 __attribute__((target("arch=x86-64-v3")))
#define FEDVR_TARGET_AVX512 __attribute__((target("arch=x86-64-v4")))
#endif

namespace fedvr::tensor {

namespace {

// FEDVR_KERNEL_CLONES / FEDVR_KERNEL_HAS_CLONES: see kernel_dispatch.h.

// ---- Blocked-GEMM parameters (rationale in DESIGN.md §10) ----
//
// The microkernel accumulates an MR x NR tile of C in registers while
// streaming a packed MR-wide sliver of A against an NR-wide sliver of B.
// A blocks (MC x KC, 128 KiB) target L2; B panels (KC x NC, 512 KiB) are
// shared read-only by all workers of one k-step. Every C element is summed
// over k in ascending KC-chunk order regardless of how row-blocks are
// scheduled onto threads, which is what keeps parallel runs bit-identical
// to serial ones.
// Register-tile shapes. The portable shape (3 x 12) fits AVX2's sixteen
// ymm registers; machines with AVX-512 get a wider 5 x 24 tile (15 zmm
// accumulators out of 32). The shape is picked once per process in
// kernel_shape() below. Tile shape is value-neutral: each C element's
// k-accumulation is a scalar FMA chain inside one microkernel invocation,
// so MR/NR only decide which elements share an invocation, never the
// per-element operation order.
constexpr std::size_t kMrAvx2 = 3;
constexpr std::size_t kNrAvx2 = 12;
constexpr std::size_t kMrAvx512 = 5;
constexpr std::size_t kNrAvx512 = 24;
constexpr std::size_t kMc = 60;  // divisible by both MR shapes
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 256;

// Below this m*n*k volume the pack + dispatch overhead of the blocked path
// outweighs its cache wins; the small-product path runs instead. Selection
// depends only on the shape, never on the pool, so it cannot perturb
// determinism.
constexpr std::size_t kBlockedMinVolume = 32 * 32 * 32;

// Element (i, p) of op(A) stored with row stride ld.
inline double op_at(Trans trans, std::span<const double> m, std::size_t ld,
                    std::size_t i, std::size_t p) {
  return trans == Trans::kNo ? m[i * ld + p] : m[p * ld + i];
}

// Packs the transpose of a stored (cols x rows) matrix with row stride ld
// into `out` as a (rows x cols) row-major matrix. `out` is caller-provided
// (arena) storage of exactly rows * cols doubles.
void pack_transposed(std::size_t rows, std::size_t cols,
                     std::span<const double> src, std::size_t ld,
                     std::span<double> out) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      out[i * cols + j] = src[j * ld + i];
    }
  }
}

// ---- Small-product path (m * n * k below kBlockedMinVolume) ----
//
// C (m x n) += alpha * A (m x k) * B (k x n), both operands untransposed
// (gemm packs a transposed one first). Arithmetic, the same in every variant
// and at every tile position: each element starts from the beta-scaled C and
// takes c = fma(alpha * a_ip, b_pj, c) for p ascending, alpha * a_ip rounded
// first. The AVX-512 and AVX2 variants hold a tile of rows x column vectors
// of C in registers and mask the column edge; a row edge runs a shorter tile
// of the same loop, so an element's bits never depend on which tile it lands
// in or which rows share its call.
constexpr std::size_t kSmallTi = 4;  // rows per full tile; edges run 1-3

// One element at a time. Without hardware FMA, std::fma is a libm call: this
// variant is for builds without target attributes and pre-AVX2 hosts.
void gemm_small_portable(std::size_t m, std::size_t n, std::size_t k,
                         double alpha, const double* a, std::size_t lda,
                         const double* b, std::size_t ldb, double* c,
                         std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    double* c_row = c + i * ldc;
    for (std::size_t p = 0; p < k; ++p) {
      const double a_ip = alpha * a[i * lda + p];
      const double* b_row = b + p * ldb;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] = std::fma(a_ip, b_row[j], c_row[j]);
      }
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

// C tile (mr x nr, row stride ldc) += alpha * a_sliver * b_sliver over pb
// depth steps. The full MR x NR accumulator is always computed (padded
// lanes just accumulate zeros); only the valid mr x nr corner is written
// back. Shared body for every ISA-specific wrapper: inlined into the
// wrapper, it is compiled with the wrapper's target ISA.
template <std::size_t MR, std::size_t NR>
[[gnu::always_inline]] inline void micro_kernel_body(
    std::size_t pb, const double* a, const double* b, double alpha, double* c,
    std::size_t ldc, std::size_t mr, std::size_t nr) {
  double acc[MR][NR] = {};
  for (std::size_t p = 0; p < pb; ++p) {
    const double* ap = a + p * MR;
    const double* bp = b + p * NR;
    for (std::size_t r = 0; r < MR; ++r) {
      const double av = ap[r];
      for (std::size_t j = 0; j < NR; ++j) {
        acc[r][j] += av * bp[j];
      }
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    double* c_row = c + r * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      c_row[j] += alpha * acc[r][j];
    }
  }
}

FEDVR_KERNEL_CLONES
void micro_kernel_avx2(std::size_t pb, const double* a, const double* b,
                       double alpha, double* c, std::size_t ldc,
                       std::size_t mr, std::size_t nr) {
  micro_kernel_body<kMrAvx2, kNrAvx2>(pb, a, b, alpha, c, ldc, mr, nr);
}

#if defined(FEDVR_KERNEL_HAS_CLONES)
FEDVR_TARGET_AVX512
void micro_kernel_avx512(std::size_t pb, const double* a, const double* b,
                         double alpha, double* c, std::size_t ldc,
                         std::size_t mr, std::size_t nr) {
  micro_kernel_body<kMrAvx512, kNrAvx512>(pb, a, b, alpha, c, ldc, mr, nr);
}
#endif

// ---- Dot-product GEMM path (small C, long k, both operands k-major) ----
//
// When A is untransposed and B is transposed, both operands stream
// unit-stride along k; when C is also small (Dense's 32 x 10 forward over
// 784 inputs, conv1's 25 x 32 dW), the blocked path has almost no operand
// reuse to exploit and spends most of its time packing. Each C element is
// computed directly as a register-resident dot product instead.
//
// Arithmetic, the same in every variant and at every tile position: lane l
// of kDotLanes is an FMA chain from +0 over the k indices congruent to l
// modulo kDotLanes, ascending; the k % kDotLanes tail indices fold into
// lanes 0..k%kDotLanes-1; the lanes are summed in ascending order into s;
// then c = fma(alpha, s, c). The AVX-512 variant holds an element's lanes
// in one zmm register, the AVX2 variant in two ymm registers, the portable
// one in eight std::fma chains, so a row's result never depends on which
// other rows share its call or its tile.
constexpr std::size_t kDotLanes = 8;
constexpr std::size_t kDotMaxC = 4096;  // m * n at or below: C fits L1 easily
constexpr std::size_t kDotMinK = 128;   // long enough to amortize the reduce

// *c = fma(alpha, lanes[0] + lanes[1] + ... + lanes[7], *c), the lanes
// summed in ascending order.
[[gnu::always_inline]] inline void dot_fold(const double* lanes, double alpha,
                                            double* c) {
  double s = lanes[0];
  for (std::size_t l = 1; l < kDotLanes; ++l) s += lanes[l];
  *c = std::fma(alpha, s, *c);
}

// One element at a time. Without hardware FMA, std::fma is a libm call: this
// variant is for builds without target attributes and pre-AVX2 hosts.
void gemm_dot_portable(std::size_t m, std::size_t n, std::size_t k,
                       double alpha, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc) {
  const std::size_t k8 = k - k % kDotLanes;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double* ap = a + i * lda;
      const double* bp = b + j * ldb;
      double lanes[kDotLanes] = {};
      for (std::size_t p = 0; p < k8; p += kDotLanes) {
        for (std::size_t l = 0; l < kDotLanes; ++l) {
          lanes[l] = std::fma(ap[p + l], bp[p + l], lanes[l]);
        }
      }
      for (std::size_t p = k8; p < k; ++p) {
        lanes[p - k8] = std::fma(ap[p], bp[p], lanes[p - k8]);
      }
      dot_fold(lanes, alpha, c + i * ldc + j);
    }
  }
}

// ---- Unpacked A^T * B path (small m: Dense's dW = dy^T * x) ----
//
// With few rows of C, the blocked path's packing of the whole k x n operand
// B on every call dominates (Dense's 10 x 784 dW re-packs the 32 x 784
// batch). This path reads A (stored k x m) and B (stored k x n) in place: a
// register tile of rows x column vectors of C walks each KC chunk of k,
// broadcasting A's elements against B's row vectors. Its per-element
// arithmetic is exactly the blocked microkernel's: per KC chunk, in
// ascending chunk order, an FMA chain from +0 over the chunk, then
// c = fma(alpha, acc, c). It therefore returns the blocked path's bits for
// every shape it takes. Only the AVX2 and AVX-512 variants have it (their
// microkernels are FMA chains); elsewhere these shapes stay blocked. At
// m <= kMc the blocked path runs one row block on one thread, so taking
// these shapes serially gives up no parallelism.
constexpr std::size_t kAtbMaxM = kMc;

#if defined(FEDVR_KERNEL_HAS_CLONES)
// Register tiles. Dot path: rows x columns of C elements. A^T*B path: rows
// x vectors of C columns.
constexpr std::size_t kDotTiAvx2 = 3;  // 3 x 2 elements, 12 ymm accumulators
constexpr std::size_t kDotTjAvx2 = 2;
constexpr std::size_t kDotTileAvx512 = 5;  // 5 x 5 elements, 25 zmm
constexpr std::size_t kAtbTiAvx2 = 5;      // 5 rows x 8 columns, 10 ymm
constexpr std::size_t kAtbTvAvx2 = 2;
constexpr std::size_t kAtbTiAvx512 = 5;  // 5 rows x 24 columns, 15 zmm
constexpr std::size_t kAtbTvAvx512 = 3;
constexpr std::size_t kSmallTvAvx2 = 2;    // 4 rows x 8 columns, 8 ymm
constexpr std::size_t kSmallTvAvx512 = 2;  // 4 rows x 16 columns, 8 zmm

// Lane masks of the TV 4-wide column vectors that cover `cols` columns.
template <std::size_t TV>
FEDVR_TARGET_AVX2 [[gnu::always_inline]] inline void column_masks_avx2(
    std::size_t cols, __m256i (&mask)[TV]) {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  for (std::size_t v = 0; v < TV; ++v) {
    const long long live =
        static_cast<long long>(cols) - static_cast<long long>(4 * v);
    mask[v] = _mm256_cmpgt_epi64(_mm256_set1_epi64x(live), lane);
  }
}

// Lane masks of the TV 8-wide column vectors that cover `cols` columns.
template <std::size_t TV>
FEDVR_TARGET_AVX512 [[gnu::always_inline]] inline void column_masks_avx512(
    std::size_t cols, __mmask8 (&mask)[TV]) {
  for (std::size_t v = 0; v < TV; ++v) {
    const std::size_t live =
        cols > 8 * v ? std::min<std::size_t>(8, cols - 8 * v) : 0;
    mask[v] = static_cast<__mmask8>((1U << live) - 1);
  }
}

// One dot-path tile: c points at its first C element, a and b at the
// matching rows of A and B. Tile rows and columns past ti / tj re-read the
// last real one and are never written back.
FEDVR_TARGET_AVX2 [[gnu::always_inline]] inline void dot_block_avx2(
    std::size_t ti, std::size_t tj, std::size_t k, double alpha,
    const double* a, std::size_t lda, const double* b, std::size_t ldb,
    double* c, std::size_t ldc) {
  constexpr std::size_t TI = kDotTiAvx2;
  constexpr std::size_t TJ = kDotTjAvx2;
  const double* ar[TI];
  const double* br[TJ];
  for (std::size_t i = 0; i < TI; ++i) ar[i] = a + std::min(i, ti - 1) * lda;
  for (std::size_t j = 0; j < TJ; ++j) br[j] = b + std::min(j, tj - 1) * ldb;
  __m256d acc[TI][TJ][2];  // lanes 0-3 and 4-7
  for (auto& row : acc) {
    for (auto& el : row) el[0] = el[1] = _mm256_setzero_pd();
  }
  const std::size_t k8 = k - k % kDotLanes;
  for (std::size_t p = 0; p < k8; p += kDotLanes) {
    for (std::size_t h = 0; h < 2; ++h) {
      __m256d av[TI];
      for (std::size_t i = 0; i < TI; ++i) {
        av[i] = _mm256_loadu_pd(ar[i] + p + 4 * h);
      }
      for (std::size_t j = 0; j < TJ; ++j) {
        const __m256d bv = _mm256_loadu_pd(br[j] + p + 4 * h);
        for (std::size_t i = 0; i < TI; ++i) {
          acc[i][j][h] = _mm256_fmadd_pd(av[i], bv, acc[i][j][h]);
        }
      }
    }
  }
  if (k8 < k) {
    // Tail products go to lanes 0..k%8-1; the blend keeps every other lane
    // bit for bit.
    const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
    for (std::size_t h = 0; h < 2; ++h) {
      const long long live = static_cast<long long>(k - k8) -
                             static_cast<long long>(4 * h);
      const __m256i mask = _mm256_cmpgt_epi64(_mm256_set1_epi64x(live), lane);
      __m256d av[TI];
      for (std::size_t i = 0; i < TI; ++i) {
        av[i] = _mm256_maskload_pd(ar[i] + k8 + 4 * h, mask);
      }
      for (std::size_t j = 0; j < TJ; ++j) {
        const __m256d bv = _mm256_maskload_pd(br[j] + k8 + 4 * h, mask);
        for (std::size_t i = 0; i < TI; ++i) {
          acc[i][j][h] = _mm256_blendv_pd(
              acc[i][j][h], _mm256_fmadd_pd(av[i], bv, acc[i][j][h]),
              _mm256_castsi256_pd(mask));
        }
      }
    }
  }
  // Constant trip counts, so acc stays in registers through the loops above.
  for (std::size_t i = 0; i < TI; ++i) {
    for (std::size_t j = 0; j < TJ; ++j) {
      if (i >= ti || j >= tj) continue;
      alignas(32) double lanes[kDotLanes];
      _mm256_store_pd(lanes, acc[i][j][0]);
      _mm256_store_pd(lanes + 4, acc[i][j][1]);
      dot_fold(lanes, alpha, c + i * ldc + j);
    }
  }
}

FEDVR_TARGET_AVX2
void gemm_dot_avx2(std::size_t m, std::size_t n, std::size_t k, double alpha,
                   const double* a, std::size_t lda, const double* b,
                   std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; i += kDotTiAvx2) {
    for (std::size_t j = 0; j < n; j += kDotTjAvx2) {
      dot_block_avx2(std::min(kDotTiAvx2, m - i), std::min(kDotTjAvx2, n - j),
                     k, alpha, a + i * lda, lda, b + j * ldb, ldb,
                     c + i * ldc + j, ldc);
    }
  }
}

FEDVR_TARGET_AVX512 [[gnu::always_inline]] inline void dot_block_avx512(
    std::size_t ti, std::size_t tj, std::size_t k, double alpha,
    const double* a, std::size_t lda, const double* b, std::size_t ldb,
    double* c, std::size_t ldc) {
  constexpr std::size_t T = kDotTileAvx512;
  const double* ar[T];
  const double* br[T];
  for (std::size_t t = 0; t < T; ++t) {
    ar[t] = a + std::min(t, ti - 1) * lda;
    br[t] = b + std::min(t, tj - 1) * ldb;
  }
  __m512d acc[T][T];
  for (auto& row : acc) {
    for (auto& el : row) el = _mm512_setzero_pd();
  }
  const std::size_t k8 = k - k % kDotLanes;
  for (std::size_t p = 0; p < k8; p += kDotLanes) {
    __m512d av[T];
    for (std::size_t i = 0; i < T; ++i) av[i] = _mm512_loadu_pd(ar[i] + p);
    for (std::size_t j = 0; j < T; ++j) {
      const __m512d bv = _mm512_loadu_pd(br[j] + p);
      for (std::size_t i = 0; i < T; ++i) {
        acc[i][j] = _mm512_fmadd_pd(av[i], bv, acc[i][j]);
      }
    }
  }
  if (k8 < k) {
    // Tail products go to lanes 0..k%8-1; mask3 keeps every other lane bit
    // for bit.
    const auto tail = static_cast<__mmask8>((1U << (k - k8)) - 1);
    __m512d av[T];
    for (std::size_t i = 0; i < T; ++i) {
      av[i] = _mm512_maskz_loadu_pd(tail, ar[i] + k8);
    }
    for (std::size_t j = 0; j < T; ++j) {
      const __m512d bv = _mm512_maskz_loadu_pd(tail, br[j] + k8);
      for (std::size_t i = 0; i < T; ++i) {
        acc[i][j] = _mm512_mask3_fmadd_pd(av[i], bv, acc[i][j], tail);
      }
    }
  }
  // Constant trip counts, so acc stays in registers through the loops above.
  for (std::size_t i = 0; i < T; ++i) {
    for (std::size_t j = 0; j < T; ++j) {
      if (i >= ti || j >= tj) continue;
      alignas(64) double lanes[kDotLanes];
      _mm512_store_pd(lanes, acc[i][j]);
      dot_fold(lanes, alpha, c + i * ldc + j);
    }
  }
}

FEDVR_TARGET_AVX512
void gemm_dot_avx512(std::size_t m, std::size_t n, std::size_t k,
                     double alpha, const double* a, std::size_t lda,
                     const double* b, std::size_t ldb, double* c,
                     std::size_t ldc) {
  constexpr std::size_t t = kDotTileAvx512;
  for (std::size_t i = 0; i < m; i += t) {
    for (std::size_t j = 0; j < n; j += t) {
      dot_block_avx512(std::min(t, m - i), std::min(t, n - j), k, alpha,
                       a + i * lda, lda, b + j * ldb, ldb, c + i * ldc + j,
                       ldc);
    }
  }
}

// One A^T*B tile over one KC chunk of pb depth steps: a points at A(p0, i0)
// (A is stored k x m), b at B(p0, j0), c at C(i0, j0). Tile rows past ti
// re-read row ti-1 and are never written back; columns past `cols` are
// masked out of every load and store.
FEDVR_TARGET_AVX2 [[gnu::always_inline]] inline void atb_block_avx2(
    std::size_t ti, std::size_t cols, std::size_t pb, double alpha,
    const double* a, std::size_t lda, const double* b, std::size_t ldb,
    double* c, std::size_t ldc) {
  constexpr std::size_t TI = kAtbTiAvx2;
  constexpr std::size_t TV = kAtbTvAvx2;
  __m256i mask[TV];
  column_masks_avx2(cols, mask);
  std::size_t row[TI];
  for (std::size_t i = 0; i < TI; ++i) row[i] = std::min(i, ti - 1);
  __m256d acc[TI][TV];
  for (auto& r : acc) {
    for (auto& v : r) v = _mm256_setzero_pd();
  }
  for (std::size_t p = 0; p < pb; ++p) {
    __m256d bv[TV];
    for (std::size_t v = 0; v < TV; ++v) {
      bv[v] = _mm256_maskload_pd(b + p * ldb + 4 * v, mask[v]);
    }
    for (std::size_t i = 0; i < TI; ++i) {
      const __m256d av = _mm256_broadcast_sd(a + p * lda + row[i]);
      for (std::size_t v = 0; v < TV; ++v) {
        acc[i][v] = _mm256_fmadd_pd(av, bv[v], acc[i][v]);
      }
    }
  }
  const __m256d va = _mm256_set1_pd(alpha);
  for (std::size_t i = 0; i < TI; ++i) {
    if (i >= ti) break;  // constant trip count: acc stays in registers
    for (std::size_t v = 0; v < TV; ++v) {
      double* cp = c + i * ldc + 4 * v;
      const __m256d cv = _mm256_maskload_pd(cp, mask[v]);
      _mm256_maskstore_pd(cp, mask[v], _mm256_fmadd_pd(va, acc[i][v], cv));
    }
  }
}

FEDVR_TARGET_AVX2
void gemm_atb_avx2(std::size_t m, std::size_t n, std::size_t k, double alpha,
                   const double* a, std::size_t lda, const double* b,
                   std::size_t ldb, double* c, std::size_t ldc) {
  constexpr std::size_t width = 4 * kAtbTvAvx2;
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t pb = std::min(kKc, k - p0);
    for (std::size_t j0 = 0; j0 < n; j0 += width) {
      for (std::size_t i0 = 0; i0 < m; i0 += kAtbTiAvx2) {
        atb_block_avx2(std::min(kAtbTiAvx2, m - i0), std::min(width, n - j0),
                       pb, alpha, a + p0 * lda + i0, lda, b + p0 * ldb + j0,
                       ldb, c + i0 * ldc + j0, ldc);
      }
    }
  }
}

FEDVR_TARGET_AVX512 [[gnu::always_inline]] inline void atb_block_avx512(
    std::size_t ti, std::size_t cols, std::size_t pb, double alpha,
    const double* a, std::size_t lda, const double* b, std::size_t ldb,
    double* c, std::size_t ldc) {
  constexpr std::size_t TI = kAtbTiAvx512;
  constexpr std::size_t TV = kAtbTvAvx512;
  __mmask8 mask[TV];
  column_masks_avx512(cols, mask);
  std::size_t row[TI];
  for (std::size_t i = 0; i < TI; ++i) row[i] = std::min(i, ti - 1);
  __m512d acc[TI][TV];
  for (auto& r : acc) {
    for (auto& v : r) v = _mm512_setzero_pd();
  }
  for (std::size_t p = 0; p < pb; ++p) {
    __m512d bv[TV];
    for (std::size_t v = 0; v < TV; ++v) {
      bv[v] = _mm512_maskz_loadu_pd(mask[v], b + p * ldb + 8 * v);
    }
    for (std::size_t i = 0; i < TI; ++i) {
      const __m512d av = _mm512_set1_pd(a[p * lda + row[i]]);
      for (std::size_t v = 0; v < TV; ++v) {
        acc[i][v] = _mm512_fmadd_pd(av, bv[v], acc[i][v]);
      }
    }
  }
  const __m512d va = _mm512_set1_pd(alpha);
  for (std::size_t i = 0; i < TI; ++i) {
    if (i >= ti) break;  // constant trip count: acc stays in registers
    for (std::size_t v = 0; v < TV; ++v) {
      double* cp = c + i * ldc + 8 * v;
      const __m512d cv = _mm512_maskz_loadu_pd(mask[v], cp);
      _mm512_mask_storeu_pd(cp, mask[v], _mm512_fmadd_pd(va, acc[i][v], cv));
    }
  }
}

FEDVR_TARGET_AVX512
void gemm_atb_avx512(std::size_t m, std::size_t n, std::size_t k,
                     double alpha, const double* a, std::size_t lda,
                     const double* b, std::size_t ldb, double* c,
                     std::size_t ldc) {
  constexpr std::size_t width = 8 * kAtbTvAvx512;
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t pb = std::min(kKc, k - p0);
    for (std::size_t j0 = 0; j0 < n; j0 += width) {
      for (std::size_t i0 = 0; i0 < m; i0 += kAtbTiAvx512) {
        atb_block_avx512(std::min(kAtbTiAvx512, m - i0),
                         std::min(width, n - j0), pb, alpha,
                         a + p0 * lda + i0, lda, b + p0 * ldb + j0, ldb,
                         c + i0 * ldc + j0, ldc);
      }
    }
  }
}

// One small-path tile: TI rows x `cols` columns of C, c pointing at its
// first element, a at the matching row of A, b at the matching column of B.
// Columns past `cols` are masked out of every load and store.
template <std::size_t TI>
FEDVR_TARGET_AVX2 [[gnu::always_inline]] inline void small_block_avx2(
    std::size_t cols, std::size_t k, double alpha, const double* a,
    std::size_t lda, const double* b, std::size_t ldb, double* c,
    std::size_t ldc) {
  constexpr std::size_t TV = kSmallTvAvx2;
  __m256i mask[TV];
  column_masks_avx2(cols, mask);
  __m256d acc[TI][TV];
  for (std::size_t i = 0; i < TI; ++i) {
    for (std::size_t v = 0; v < TV; ++v) {
      acc[i][v] = _mm256_maskload_pd(c + i * ldc + 4 * v, mask[v]);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    __m256d bv[TV];
    for (std::size_t v = 0; v < TV; ++v) {
      bv[v] = _mm256_maskload_pd(b + p * ldb + 4 * v, mask[v]);
    }
    for (std::size_t i = 0; i < TI; ++i) {
      const __m256d av = _mm256_set1_pd(alpha * a[i * lda + p]);
      for (std::size_t v = 0; v < TV; ++v) {
        acc[i][v] = _mm256_fmadd_pd(av, bv[v], acc[i][v]);
      }
    }
  }
  for (std::size_t i = 0; i < TI; ++i) {
    for (std::size_t v = 0; v < TV; ++v) {
      _mm256_maskstore_pd(c + i * ldc + 4 * v, mask[v], acc[i][v]);
    }
  }
}

FEDVR_TARGET_AVX2
void gemm_small_avx2(std::size_t m, std::size_t n, std::size_t k,
                     double alpha, const double* a, std::size_t lda,
                     const double* b, std::size_t ldb, double* c,
                     std::size_t ldc) {
  constexpr std::size_t width = 4 * kSmallTvAvx2;
  for (std::size_t j0 = 0; j0 < n; j0 += width) {
    const std::size_t cols = std::min(width, n - j0);
    std::size_t i0 = 0;
    for (; i0 + kSmallTi <= m; i0 += kSmallTi) {
      small_block_avx2<kSmallTi>(cols, k, alpha, a + i0 * lda, lda, b + j0,
                                 ldb, c + i0 * ldc + j0, ldc);
    }
    const double* ap = a + i0 * lda;
    double* cp = c + i0 * ldc + j0;
    switch (m - i0) {
      case 3:
        small_block_avx2<3>(cols, k, alpha, ap, lda, b + j0, ldb, cp, ldc);
        break;
      case 2:
        small_block_avx2<2>(cols, k, alpha, ap, lda, b + j0, ldb, cp, ldc);
        break;
      case 1:
        small_block_avx2<1>(cols, k, alpha, ap, lda, b + j0, ldb, cp, ldc);
        break;
      default:
        break;
    }
  }
}

template <std::size_t TI>
FEDVR_TARGET_AVX512 [[gnu::always_inline]] inline void small_block_avx512(
    std::size_t cols, std::size_t k, double alpha, const double* a,
    std::size_t lda, const double* b, std::size_t ldb, double* c,
    std::size_t ldc) {
  constexpr std::size_t TV = kSmallTvAvx512;
  __mmask8 mask[TV];
  column_masks_avx512(cols, mask);
  __m512d acc[TI][TV];
  for (std::size_t i = 0; i < TI; ++i) {
    for (std::size_t v = 0; v < TV; ++v) {
      acc[i][v] = _mm512_maskz_loadu_pd(mask[v], c + i * ldc + 8 * v);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    __m512d bv[TV];
    for (std::size_t v = 0; v < TV; ++v) {
      bv[v] = _mm512_maskz_loadu_pd(mask[v], b + p * ldb + 8 * v);
    }
    for (std::size_t i = 0; i < TI; ++i) {
      const __m512d av = _mm512_set1_pd(alpha * a[i * lda + p]);
      for (std::size_t v = 0; v < TV; ++v) {
        acc[i][v] = _mm512_fmadd_pd(av, bv[v], acc[i][v]);
      }
    }
  }
  for (std::size_t i = 0; i < TI; ++i) {
    for (std::size_t v = 0; v < TV; ++v) {
      _mm512_mask_storeu_pd(c + i * ldc + 8 * v, mask[v], acc[i][v]);
    }
  }
}

FEDVR_TARGET_AVX512
void gemm_small_avx512(std::size_t m, std::size_t n, std::size_t k,
                       double alpha, const double* a, std::size_t lda,
                       const double* b, std::size_t ldb, double* c,
                       std::size_t ldc) {
  constexpr std::size_t width = 8 * kSmallTvAvx512;
  for (std::size_t j0 = 0; j0 < n; j0 += width) {
    const std::size_t cols = std::min(width, n - j0);
    std::size_t i0 = 0;
    for (; i0 + kSmallTi <= m; i0 += kSmallTi) {
      small_block_avx512<kSmallTi>(cols, k, alpha, a + i0 * lda, lda, b + j0,
                                   ldb, c + i0 * ldc + j0, ldc);
    }
    const double* ap = a + i0 * lda;
    double* cp = c + i0 * ldc + j0;
    switch (m - i0) {
      case 3:
        small_block_avx512<3>(cols, k, alpha, ap, lda, b + j0, ldb, cp, ldc);
        break;
      case 2:
        small_block_avx512<2>(cols, k, alpha, ap, lda, b + j0, ldb, cp, ldc);
        break;
      case 1:
        small_block_avx512<1>(cols, k, alpha, ap, lda, b + j0, ldb, cp, ldc);
        break;
      default:
        break;
    }
  }
}
#endif  // FEDVR_KERNEL_HAS_CLONES

// ---- ISA variants ----
//
// One variant per ISA level: the blocked path's register tile and
// microkernel, the dot-path kernel, the A^T*B kernel (nullptr: those shapes
// stay blocked) and the small-product kernel. gemm uses the host's best
// variant, fixed once per process; builds without target attributes
// (sanitizers) have only the portable one. The choice is per machine, never
// per run or per thread, so it cannot perturb the determinism contract.
// detail::set_kernel_isa lets tests run the others and compare their bits.
using PathKernel = void(std::size_t m, std::size_t n, std::size_t k,
                        double alpha, const double* a, std::size_t lda,
                        const double* b, std::size_t ldb, double* c,
                        std::size_t ldc);

struct KernelShape {
  std::size_t mr;
  std::size_t nr;
  void (*kernel)(std::size_t, const double*, const double*, double, double*,
                 std::size_t, std::size_t, std::size_t);
  PathKernel* dot;
  PathKernel* atb;
  PathKernel* small;
};

KernelShape shape_for(detail::KernelIsa isa) {
  switch (isa) {
#if defined(FEDVR_KERNEL_HAS_CLONES)
    case detail::KernelIsa::kAvx512:
      return {kMrAvx512,       kNrAvx512,      micro_kernel_avx512,
              gemm_dot_avx512, gemm_atb_avx512, gemm_small_avx512};
    case detail::KernelIsa::kAvx2:
      return {kMrAvx2,       kNrAvx2,       micro_kernel_avx2,
              gemm_dot_avx2, gemm_atb_avx2, gemm_small_avx2};
#endif
    default:
      return {kMrAvx2,           kNrAvx2, micro_kernel_avx2,
              gemm_dot_portable, nullptr, gemm_small_portable};
  }
}

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

const KernelShape& kernel_shape() {
  static const KernelShape shapes[] = {
      shape_for(detail::KernelIsa::kPortable),
      shape_for(detail::KernelIsa::kAvx2),
      shape_for(detail::KernelIsa::kAvx512)};
  return shapes[static_cast<std::size_t>(active_isa().load())];
}

// The blocked path: jc (NC) -> pc (KC, serial so the k-order is fixed) ->
// parallel over ic (MC row-blocks of C, disjoint) -> jr (NR) -> ir (MR).
// beta has already been applied to C by the caller.
void gemm_blocked(const KernelShape& ks, Trans trans_a, Trans trans_b,
                  std::size_t m, std::size_t n, std::size_t k, double alpha,
                  std::span<const double> a, std::size_t lda,
                  std::span<const double> b, std::size_t ldb,
                  std::span<double> c, std::size_t ldc) {
  // One B-panel allocation per gemm call, sized for the largest (p0, j0)
  // panel; each iteration packs into its prefix. The panel lives on the
  // calling thread's arena and is read-only for the workers (parallel_for's
  // task handoff publishes it); workers draw their A blocks from their own
  // per-thread arenas (inline execution nests scopes LIFO on this one).
  const std::size_t mr_t = ks.mr;
  const std::size_t nr_t = ks.nr;
  Workspace ws(scratch_arena());
  const std::size_t max_pb = std::min(kKc, k);
  auto b_panel =
      ws.alloc<double>((std::min(kNc, n) + nr_t - 1) / nr_t * max_pb * nr_t);
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
            Workspace wws(scratch_arena());
            const auto a_block = wws.alloc<double>(a_block_doubles);
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

// y[i] += alpha * <A row i, x> for i in [lo, hi).
FEDVR_KERNEL_CLONES
void gemv_rows(std::size_t lo, std::size_t hi, std::size_t cols, double alpha,
               const double* a, const double* x, double* y) {
  for (std::size_t i = lo; i < hi; ++i) {
    const double* row = a + i * cols;
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) acc += row[j] * x[j];
    y[i] += alpha * acc;
  }
}

// y[j] += alpha * sum_i x[i] * A(i, j) for j in [lo, hi): i ascending so
// the per-element order is chunk-invariant, unit-stride inner loop.
FEDVR_KERNEL_CLONES
void gemv_cols(std::size_t lo, std::size_t hi, std::size_t rows,
               std::size_t cols, double alpha, const double* a,
               const double* x, double* y) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = a + i * cols;
    const double xi = alpha * x[i];
    for (std::size_t j = lo; j < hi; ++j) y[j] += xi * row[j];
  }
}

}  // namespace

namespace detail {

bool kernel_isa_supported(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kPortable:
      return true;
#if defined(FEDVR_KERNEL_HAS_CLONES)
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
    if (ks.atb != nullptr && trans_a == Trans::kYes &&
        trans_b == Trans::kNo && m <= kAtbMaxM) {
      ks.atb(m, n, k, alpha, a.data(), lda, b.data(), ldb, c.data(), ldc);
    } else {
      gemm_blocked(ks, trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c,
                   ldc);
    }
    return;
  }

  // Small-product path: a transposed operand is packed into untransposed
  // layout (linear cost against a cubic product) so one kernel serves all
  // four combinations; an untransposed one is read in place. Pack storage
  // comes from the per-thread arena scope.
  Workspace ws(scratch_arena());
  const double* a_ptr = a.data();
  const double* b_ptr = b.data();
  if (trans_a == Trans::kYes) {
    auto a_pack = ws.alloc<double>(m * k);
    pack_transposed(m, k, a, lda, a_pack);
    a_ptr = a_pack.data();
    lda = k;
  }
  if (trans_b == Trans::kYes) {
    auto b_pack = ws.alloc<double>(k * n);
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

void gemv(Trans trans, std::size_t rows, std::size_t cols, double alpha,
          std::span<const double> a, std::span<const double> x, double beta,
          std::span<double> y) {
  FEDVR_CHECK_PRE(a.size() >= rows * cols,
                  "gemv: A storage " << a.size() << " < " << rows * cols);
  [[maybe_unused]] const std::size_t x_len = (trans == Trans::kNo) ? cols : rows;
  [[maybe_unused]] const std::size_t y_len = (trans == Trans::kNo) ? rows : cols;
  FEDVR_CHECK_SHAPE(x.size(), x_len);
  FEDVR_CHECK_SHAPE(y.size(), y_len);
  if (beta == 0.0) {
    std::fill(y.begin(), y.end(), 0.0);
  } else if (beta != 1.0) {
    for (double& v : y) v *= beta;
  }
  FEDVR_OBS_COUNT("tensor.gemv.calls", 1);
  if (alpha == 0.0) return;
  FEDVR_OBS_COUNT("tensor.gemv.flops", 2ULL * rows * cols);
  // Both orientations parallelize over disjoint slices of y, so each
  // element keeps one fixed accumulation order (ascending over the summed
  // dimension) no matter how the range is chunked: bit-identical across
  // pool sizes, including size 1. Small products skip the dispatch.
  constexpr std::size_t kGemvMinParallel = 1U << 15;
  const bool parallel = rows * cols >= kGemvMinParallel;
  if (trans == Trans::kNo) {
    auto run_rows = [&](std::size_t lo, std::size_t hi) {
      gemv_rows(lo, hi, cols, alpha, a.data(), x.data(), y.data());
    };
    if (parallel) {
      util::ThreadPool::global().parallel_ranges(0, rows, run_rows, 16);
    } else {
      run_rows(0, rows);
    }
  } else {
    auto run_cols = [&](std::size_t lo, std::size_t hi) {
      gemv_cols(lo, hi, rows, cols, alpha, a.data(), x.data(), y.data());
    };
    if (parallel) {
      util::ThreadPool::global().parallel_ranges(0, cols, run_cols, 64);
    } else {
      run_cols(0, cols);
    }
  }
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

namespace {

// Blocked so both the read and the write side stay within a few cache
// lines per tile; 16 doubles = 2 lines.
constexpr std::size_t kTransposeTile = 16;

FEDVR_KERNEL_CLONES
void transpose_core(std::size_t rows, std::size_t cols, const double* in,
                    double* out) {
  for (std::size_t i0 = 0; i0 < rows; i0 += kTransposeTile) {
    const std::size_t ih = std::min(rows, i0 + kTransposeTile);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTransposeTile) {
      const std::size_t jh = std::min(cols, j0 + kTransposeTile);
      for (std::size_t i = i0; i < ih; ++i) {
        const double* src = in + i * cols;
        for (std::size_t j = j0; j < jh; ++j) {
          out[j * rows + i] = src[j];
        }
      }
    }
  }
}

FEDVR_KERNEL_CLONES
void add_transposed_core(std::size_t rows, std::size_t cols, const double* in,
                         double* out) {
  for (std::size_t i0 = 0; i0 < rows; i0 += kTransposeTile) {
    const std::size_t ih = std::min(rows, i0 + kTransposeTile);
    for (std::size_t j0 = 0; j0 < cols; j0 += kTransposeTile) {
      const std::size_t jh = std::min(cols, j0 + kTransposeTile);
      for (std::size_t i = i0; i < ih; ++i) {
        double* dst = out + i * cols;
        for (std::size_t j = j0; j < jh; ++j) {
          dst[j] += in[j * rows + i];
        }
      }
    }
  }
}

FEDVR_KERNEL_CLONES
void add_row_sums_core(std::size_t rows, std::size_t cols, const double* m,
                       double* out) {
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = m + i * cols;
    // Single serial ascending accumulator: the FP order the determinism
    // contract pins for the conv2d db partials.
    double acc = 0.0;
    for (std::size_t j = 0; j < cols; ++j) acc += row[j];
    out[i] += acc;
  }
}

}  // namespace

void transpose(std::size_t rows, std::size_t cols, std::span<const double> in,
               std::span<double> out) {
  FEDVR_CHECK_SHAPE(in.size(), rows * cols);
  FEDVR_CHECK_SHAPE(out.size(), rows * cols);
  transpose_core(rows, cols, in.data(), out.data());
}

void add_transposed(std::size_t rows, std::size_t cols,
                    std::span<const double> in, std::span<double> out) {
  FEDVR_CHECK_SHAPE(in.size(), rows * cols);
  FEDVR_CHECK_SHAPE(out.size(), rows * cols);
  add_transposed_core(rows, cols, in.data(), out.data());
}

void add_row_sums(std::size_t rows, std::size_t cols,
                  std::span<const double> m, std::span<double> out) {
  FEDVR_CHECK_SHAPE(m.size(), rows * cols);
  FEDVR_CHECK_SHAPE(out.size(), rows);
  add_row_sums_core(rows, cols, m.data(), out.data());
}

}  // namespace fedvr::tensor
