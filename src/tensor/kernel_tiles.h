// No include guard, by design: kernels.cpp includes this file once inside
// each kernel variant's namespace (portable, avx2, avx512), so every GEMM
// tile below is written once and compiled once per ISA. Include nothing
// here; kernels.cpp includes <algorithm> and <cmath> first.
//
// The including namespace defines:
//  * V, kLanes (= 8) doubles, and Mask, a set of V's leading lanes;
//  * vzero(), vset1(x), vload(p), vstore(p, v), on all lanes;
//  * vmask(live), the first min(live, kLanes) lanes;
//  * vload_mask(p, m), the masked lanes from p and zeros elsewhere, and
//    vstore_mask(p, m, v), which writes the masked lanes only;
//  * vfma(a, b, c), a * b + c rounded once in every lane, and
//    vfma_mask(a, b, c, m), the same in the masked lanes and c elsewhere;
//  * the register tiles kMr x kNr (blocked microkernel), kDotTi x kDotTj
//    elements (dot path), kAtbTi rows x kAtbTv vectors (A^T*B path) and
//    kSmallTi rows x kSmallTv vectors (small path).
//
// Every multiply-add is an explicit vfma or std::fma. GCC contracts a
// written-out `x += a * b` into an FMA at -O2 and above but not at -O0, so
// that spelling would give Debug and sanitizer builds other bits. The
// arithmetic of each path is documented next to its constants in
// kernels.cpp.

// Blocked-path microkernel: the C tile (mr x nr corner of kMr x kNr, row
// stride ldc) += alpha * a_sliver * b_sliver over pb depth steps. Padded
// rows and columns accumulate zeros and are never written back. Scalar
// code: GCC vectorizes it across the kNr columns.
void micro_kernel(std::size_t pb, const double* a, const double* b,
                  double alpha, double* c, std::size_t ldc, std::size_t mr,
                  std::size_t nr) {
  double acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < pb; ++p) {
    const double* ap = a + p * kMr;
    const double* bp = b + p * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      for (std::size_t j = 0; j < kNr; ++j) {
        acc[r][j] = std::fma(ap[r], bp[j], acc[r][j]);
      }
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    double* c_row = c + r * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      c_row[j] = std::fma(alpha, acc[r][j], c_row[j]);
    }
  }
}

// *c = fma(alpha, lane 0 + lane 1 + ... + lane 7 of acc, *c), the lanes
// summed in ascending order.
[[gnu::always_inline]] inline void dot_fold(V acc, double alpha, double* c) {
  double lanes[kLanes];
  vstore(lanes, acc);
  double s = lanes[0];
  for (std::size_t l = 1; l < kLanes; ++l) s += lanes[l];
  *c = std::fma(alpha, s, *c);
}

// One dot-path tile of ti x tj C elements: c points at the first, a and b
// at the matching rows of A and B. Tile rows and columns past ti / tj
// re-read the last real one and are never written back.
[[gnu::always_inline]] inline void dot_tile(std::size_t ti, std::size_t tj,
                                            std::size_t k, double alpha,
                                            const double* a, std::size_t lda,
                                            const double* b, std::size_t ldb,
                                            double* c, std::size_t ldc) {
  const double* ar[kDotTi];
  const double* br[kDotTj];
  for (std::size_t i = 0; i < kDotTi; ++i) {
    ar[i] = a + std::min(i, ti - 1) * lda;
  }
  for (std::size_t j = 0; j < kDotTj; ++j) {
    br[j] = b + std::min(j, tj - 1) * ldb;
  }
  V acc[kDotTi][kDotTj];
  for (auto& row : acc) {
    for (auto& el : row) el = vzero();
  }
  const std::size_t k8 = k - k % kLanes;
  for (std::size_t p = 0; p < k8; p += kLanes) {
    V av[kDotTi];
    for (std::size_t i = 0; i < kDotTi; ++i) av[i] = vload(ar[i] + p);
    for (std::size_t j = 0; j < kDotTj; ++j) {
      const V bv = vload(br[j] + p);
      for (std::size_t i = 0; i < kDotTi; ++i) {
        acc[i][j] = vfma(av[i], bv, acc[i][j]);
      }
    }
  }
  if (k8 < k) {
    // Tail products go to lanes 0..k%8-1; every other lane keeps its bits.
    const Mask tail = vmask(k - k8);
    V av[kDotTi];
    for (std::size_t i = 0; i < kDotTi; ++i) {
      av[i] = vload_mask(ar[i] + k8, tail);
    }
    for (std::size_t j = 0; j < kDotTj; ++j) {
      const V bv = vload_mask(br[j] + k8, tail);
      for (std::size_t i = 0; i < kDotTi; ++i) {
        acc[i][j] = vfma_mask(av[i], bv, acc[i][j], tail);
      }
    }
  }
  // Constant trip counts, so acc stays in registers through the loops above.
  for (std::size_t i = 0; i < kDotTi; ++i) {
    for (std::size_t j = 0; j < kDotTj; ++j) {
      if (i < ti && j < tj) dot_fold(acc[i][j], alpha, c + i * ldc + j);
    }
  }
}

void gemm_dot(std::size_t m, std::size_t n, std::size_t k, double alpha,
              const double* a, std::size_t lda, const double* b,
              std::size_t ldb, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; i += kDotTi) {
    for (std::size_t j = 0; j < n; j += kDotTj) {
      dot_tile(std::min(kDotTi, m - i), std::min(kDotTj, n - j), k, alpha,
               a + i * lda, lda, b + j * ldb, ldb, c + i * ldc + j, ldc);
    }
  }
}

// Masks of the `count` vectors that cover `cols` columns.
[[gnu::always_inline]] inline void column_masks(std::size_t cols,
                                                std::size_t count,
                                                Mask* mask) {
  for (std::size_t v = 0; v < count; ++v) {
    mask[v] = vmask(cols > kLanes * v ? cols - kLanes * v : 0);
  }
}

// One A^T*B tile over one KC chunk of pb depth steps: ti rows x `cols`
// columns of C, a pointing at A(p0, i0) (A is stored k x m), b at B(p0, j0),
// c at C(i0, j0). Tile rows past ti re-read row ti-1 and are never written
// back; columns past `cols` are masked out of every load and store.
[[gnu::always_inline]] inline void atb_tile(std::size_t ti, std::size_t cols,
                                            std::size_t pb, double alpha,
                                            const double* a, std::size_t lda,
                                            const double* b, std::size_t ldb,
                                            double* c, std::size_t ldc) {
  Mask mask[kAtbTv];
  column_masks(cols, kAtbTv, mask);
  std::size_t row[kAtbTi];
  for (std::size_t i = 0; i < kAtbTi; ++i) row[i] = std::min(i, ti - 1);
  V acc[kAtbTi][kAtbTv];
  for (auto& r : acc) {
    for (auto& v : r) v = vzero();
  }
  for (std::size_t p = 0; p < pb; ++p) {
    V bv[kAtbTv];
    for (std::size_t v = 0; v < kAtbTv; ++v) {
      bv[v] = vload_mask(b + p * ldb + kLanes * v, mask[v]);
    }
    for (std::size_t i = 0; i < kAtbTi; ++i) {
      const V av = vset1(a[p * lda + row[i]]);
      for (std::size_t v = 0; v < kAtbTv; ++v) {
        acc[i][v] = vfma(av, bv[v], acc[i][v]);
      }
    }
  }
  const V va = vset1(alpha);
  for (std::size_t i = 0; i < kAtbTi; ++i) {
    if (i >= ti) break;  // constant trip count: acc stays in registers
    for (std::size_t v = 0; v < kAtbTv; ++v) {
      double* cp = c + i * ldc + kLanes * v;
      vstore_mask(cp, mask[v], vfma(va, acc[i][v], vload_mask(cp, mask[v])));
    }
  }
}

void gemm_atb(std::size_t m, std::size_t n, std::size_t k, double alpha,
              const double* a, std::size_t lda, const double* b,
              std::size_t ldb, double* c, std::size_t ldc) {
  constexpr std::size_t width = kLanes * kAtbTv;
  for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
    const std::size_t pb = std::min(kKc, k - p0);
    for (std::size_t j0 = 0; j0 < n; j0 += width) {
      for (std::size_t i0 = 0; i0 < m; i0 += kAtbTi) {
        atb_tile(std::min(kAtbTi, m - i0), std::min(width, n - j0), pb, alpha,
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
[[gnu::always_inline]] inline void small_tile(std::size_t cols, std::size_t k,
                                              double alpha, const double* a,
                                              std::size_t lda, const double* b,
                                              std::size_t ldb, double* c,
                                              std::size_t ldc) {
  Mask mask[kSmallTv];
  column_masks(cols, kSmallTv, mask);
  V acc[TI][kSmallTv];
  for (std::size_t i = 0; i < TI; ++i) {
    for (std::size_t v = 0; v < kSmallTv; ++v) {
      acc[i][v] = vload_mask(c + i * ldc + kLanes * v, mask[v]);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    V bv[kSmallTv];
    for (std::size_t v = 0; v < kSmallTv; ++v) {
      bv[v] = vload_mask(b + p * ldb + kLanes * v, mask[v]);
    }
    for (std::size_t i = 0; i < TI; ++i) {
      const V av = vset1(alpha * a[i * lda + p]);
      for (std::size_t v = 0; v < kSmallTv; ++v) {
        acc[i][v] = vfma(av, bv[v], acc[i][v]);
      }
    }
  }
  for (std::size_t i = 0; i < TI; ++i) {
    for (std::size_t v = 0; v < kSmallTv; ++v) {
      vstore_mask(c + i * ldc + kLanes * v, mask[v], acc[i][v]);
    }
  }
}

void gemm_small(std::size_t m, std::size_t n, std::size_t k, double alpha,
                const double* a, std::size_t lda, const double* b,
                std::size_t ldb, double* c, std::size_t ldc) {
  constexpr std::size_t width = kLanes * kSmallTv;
  for (std::size_t j0 = 0; j0 < n; j0 += width) {
    const std::size_t cols = std::min(width, n - j0);
    std::size_t i0 = 0;
    for (; i0 + kSmallTi <= m; i0 += kSmallTi) {
      small_tile<kSmallTi>(cols, k, alpha, a + i0 * lda, lda, b + j0, ldb,
                           c + i0 * ldc + j0, ldc);
    }
    const double* ap = a + i0 * lda;
    double* cp = c + i0 * ldc + j0;
    switch (m - i0) {
      case 3:
        small_tile<3>(cols, k, alpha, ap, lda, b + j0, ldb, cp, ldc);
        break;
      case 2:
        small_tile<2>(cols, k, alpha, ap, lda, b + j0, ldb, cp, ldc);
        break;
      case 1:
        small_tile<1>(cols, k, alpha, ap, lda, b + j0, ldb, cp, ldc);
        break;
      default:
        break;
    }
  }
}

constexpr KernelShape kShape = {kMr,      kNr,      micro_kernel,
                                gemm_dot, gemm_atb, gemm_small};
