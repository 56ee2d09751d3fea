#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "check/check.h"
#include "obs/registry.h"
#include "tensor/arena.h"
#include "tensor/kernel_dispatch.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace fedvr::tensor {

void scratch_resize(std::vector<double>& buf, std::size_t n) {
  const bool drop_oversize =
      buf.capacity() > kScratchCapDoubles && n <= kScratchCapDoubles;
  if (drop_oversize || n > buf.capacity()) {
    // Fresh-allocate + swap: contents are scratch, so never pay resize()'s
    // copy of the stale prefix into the new allocation (and the shrink path
    // costs exactly one free + one allocation).
    std::vector<double> fresh(n);
    buf.swap(fresh);
    return;
  }
  buf.resize(n);
}

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
// outweighs its cache wins; a packed triple loop runs instead. Selection
// depends only on the shape, never on the pool, so it cannot perturb
// determinism.
constexpr std::size_t kBlockedMinVolume = 32 * 32 * 32;

// Element (i, p) of op(A) stored with row stride ld.
inline double op_at(Trans trans, std::span<const double> m, std::size_t ld,
                    std::size_t i, std::size_t p) {
  return trans == Trans::kNo ? m[i * ld + p] : m[p * ld + i];
}

// C (m x n, row stride ldc) += alpha * A (m x k, packed) * B (k x n, packed),
// where A and B have already been materialized in non-transposed packed
// layout. ikj loop order keeps B and C accesses unit-stride.
FEDVR_KERNEL_CLONES
void gemm_core(std::size_t m, std::size_t n, std::size_t k, double alpha,
               const double* a, const double* b, std::span<double> c,
               std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    double* c_row = c.data() + i * ldc;
    const double* a_row = a + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const double a_ip = alpha * a_row[p];
      const double* b_row = b + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ip * b_row[j];
      }
    }
  }
}

// Packs op(M) into `out` as a (rows x cols) row-major matrix. `out` is
// caller-provided (arena) storage of exactly rows * cols doubles.
void pack(Trans trans, std::size_t rows, std::size_t cols,
          std::span<const double> src, std::size_t ld, std::span<double> out) {
  if (trans == Trans::kNo) {
    for (std::size_t i = 0; i < rows; ++i) {
      const double* s = src.data() + i * ld;
      std::copy(s, s + cols, out.data() + i * cols);
    }
  } else {
    // Stored matrix is (cols x rows) with row stride ld; emit its transpose.
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        out[i * cols + j] = src[j * ld + i];
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
__attribute__((target("arch=x86-64-v4")))
void micro_kernel_avx512(std::size_t pb, const double* a, const double* b,
                         double alpha, double* c, std::size_t ldc,
                         std::size_t mr, std::size_t nr) {
  micro_kernel_body<kMrAvx512, kNrAvx512>(pb, a, b, alpha, c, ldc, mr, nr);
}
#endif

// The register-tile shape and matching microkernel, fixed once per process.
// AVX-512 machines take the wide tile; everything else (including sanitizer
// builds, which cannot use target attributes) takes the portable one. The
// choice is per-machine, never per-run or per-thread, so it cannot perturb
// the determinism contract.
struct KernelShape {
  std::size_t mr;
  std::size_t nr;
  void (*kernel)(std::size_t, const double*, const double*, double, double*,
                 std::size_t, std::size_t, std::size_t);
};

const KernelShape& kernel_shape() {
  static const KernelShape shape = [] {
#if defined(FEDVR_KERNEL_HAS_CLONES)
    if (__builtin_cpu_supports("avx512f")) {
      return KernelShape{kMrAvx512, kNrAvx512, micro_kernel_avx512};
    }
#endif
    return KernelShape{kMrAvx2, kNrAvx2, micro_kernel_avx2};
  }();
  return shape;
}

// The blocked path: jc (NC) -> pc (KC, serial so the k-order is fixed) ->
// parallel over ic (MC row-blocks of C, disjoint) -> jr (NR) -> ir (MR).
// beta has already been applied to C by the caller.
void gemm_blocked(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                  std::size_t k, double alpha, std::span<const double> a,
                  std::size_t lda, std::span<const double> b, std::size_t ldb,
                  std::span<double> c, std::size_t ldc) {
  // One B-panel allocation per gemm call, sized for the largest (p0, j0)
  // panel; each iteration packs into its prefix. The panel lives on the
  // calling thread's arena and is read-only for the workers (parallel_for's
  // task handoff publishes it); workers draw their A blocks from their own
  // per-thread arenas (inline execution nests scopes LIFO on this one).
  const KernelShape& ks = kernel_shape();
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

// ---- Dot-product GEMM path (small C, long k, both operands k-major) ----
//
// When A is untransposed and B is transposed, both operands stream
// unit-stride along k; when C is also tiny (e.g. conv1's 25 x 32 dW with
// k = 784), the blocked path has almost no operand reuse to exploit and
// spends most of its time packing and re-streaming slivers. Computing each
// C element directly as a register-resident dot product wins there.
//
// Determinism: each element is accumulated into kDotLanes independent
// partial sums (lane l takes the k indices congruent to l modulo
// kDotLanes, tail indices fold into lanes 0..k%kDotLanes), then reduced in
// ascending lane order. The tile grouping below never changes any
// element's arithmetic, and path selection depends only on the shape.
constexpr std::size_t kDotLanes = 8;
constexpr std::size_t kDotMaxC = 4096;  // m * n at or below: C fits L1 easily
constexpr std::size_t kDotMinK = 128;   // long enough to amortize the reduce

template <std::size_t TI, std::size_t TJ>
[[gnu::always_inline]] inline void dot_tile(std::size_t k, double alpha,
                                            const double* a, std::size_t lda,
                                            const double* b, std::size_t ldb,
                                            double* c, std::size_t ldc) {
  double acc[TI][TJ][kDotLanes] = {};
  const std::size_t k8 = k - k % kDotLanes;
  for (std::size_t p = 0; p < k8; p += kDotLanes) {
    for (std::size_t i = 0; i < TI; ++i) {
      for (std::size_t j = 0; j < TJ; ++j) {
        const double* ap = a + i * lda + p;
        const double* bp = b + j * ldb + p;
        for (std::size_t l = 0; l < kDotLanes; ++l) {
          acc[i][j][l] += ap[l] * bp[l];
        }
      }
    }
  }
  for (std::size_t p = k8; p < k; ++p) {
    for (std::size_t i = 0; i < TI; ++i) {
      for (std::size_t j = 0; j < TJ; ++j) {
        acc[i][j][p - k8] += a[i * lda + p] * b[j * ldb + p];
      }
    }
  }
  for (std::size_t i = 0; i < TI; ++i) {
    for (std::size_t j = 0; j < TJ; ++j) {
      double s = acc[i][j][0];
      for (std::size_t l = 1; l < kDotLanes; ++l) s += acc[i][j][l];
      c[i * ldc + j] += alpha * s;
    }
  }
}

FEDVR_KERNEL_CLONES
void gemm_dot_core(std::size_t m, std::size_t n, std::size_t k, double alpha,
                   const double* a, std::size_t lda, const double* b,
                   std::size_t ldb, double* c, std::size_t ldc) {
  const std::size_t m2 = m - m % 2;
  const std::size_t n2 = n - n % 2;
  for (std::size_t i = 0; i < m2; i += 2) {
    for (std::size_t j = 0; j < n2; j += 2) {
      dot_tile<2, 2>(k, alpha, a + i * lda, lda, b + j * ldb, ldb,
                     c + i * ldc + j, ldc);
    }
    if (n2 < n) {
      dot_tile<2, 1>(k, alpha, a + i * lda, lda, b + n2 * ldb, ldb,
                     c + i * ldc + n2, ldc);
    }
  }
  if (m2 < m) {
    for (std::size_t j = 0; j < n2; j += 2) {
      dot_tile<1, 2>(k, alpha, a + m2 * lda, lda, b + j * ldb, ldb,
                     c + m2 * ldc + j, ldc);
    }
    if (n2 < n) {
      dot_tile<1, 1>(k, alpha, a + m2 * lda, lda, b + n2 * ldb, ldb,
                     c + m2 * ldc + n2, ldc);
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
  // the dot path must be tested before the blocked one — its shapes usually
  // clear the blocked volume floor but run far faster unblocked.
  if (trans_a == Trans::kNo && trans_b == Trans::kYes && m * n <= kDotMaxC &&
      k >= kDotMinK) {
    gemm_dot_core(m, n, k, alpha, a.data(), lda, b.data(), ldb, c.data(),
                  ldc);
    return;
  }

  if (m * n * k >= kBlockedMinVolume) {
    gemm_blocked(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }

  // Small-product path: pack operands into non-transposed layout. Simpler
  // than four loop variants, and the packing cost is linear while the
  // product is cubic. Pack storage comes from the per-thread arena scope.
  Workspace ws(scratch_arena());
  const double* a_ptr;
  const double* b_ptr;
  if (trans_a == Trans::kNo && lda == k) {
    a_ptr = a.data();
  } else {
    auto a_pack = ws.alloc<double>(m * k);
    pack(trans_a, m, k, a, lda, a_pack);
    a_ptr = a_pack.data();
  }
  if (trans_b == Trans::kNo && ldb == n) {
    b_ptr = b.data();
  } else {
    auto b_pack = ws.alloc<double>(k * n);
    pack(trans_b, k, n, b, ldb, b_pack);
    b_ptr = b_pack.data();
  }
  gemm_core(m, n, k, alpha, a_ptr, b_ptr, c, ldc);
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

void softmax_rows(std::size_t rows, std::size_t cols,
                  std::span<const double> logits, std::span<double> probs) {
  FEDVR_CHECK_SHAPE(logits.size(), rows * cols);
  FEDVR_CHECK_SHAPE(probs.size(), rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* in = logits.data() + i * cols;
    double* out = probs.data() + i * cols;
    double max_v = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < cols; ++j) max_v = std::max(max_v, in[j]);
    double sum = 0.0;
    for (std::size_t j = 0; j < cols; ++j) {
      out[j] = std::exp(in[j] - max_v);
      sum += out[j];
    }
    const double inv = 1.0 / sum;
    for (std::size_t j = 0; j < cols; ++j) out[j] *= inv;
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
