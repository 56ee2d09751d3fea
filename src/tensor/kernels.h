// Matrix kernels: GEMM and the elementwise / reduction operations the nn
// layers are written in terms of.
//
// Matrices are dense row-major spans with explicit dimensions; the layers
// pass views of caller-owned vectors (parameters, gradients, activations).
// GEMM is a cache-blocked (MC x NC x KC panels, MR x NR register-tiled
// microkernel) implementation parallelized over disjoint row-blocks of C —
// no external BLAS per the reproduction rules. The k-accumulation order of
// every C element is fixed by the blocking constants alone, never by the
// thread partition, so results are bit-identical across pool sizes (the
// determinism contract; see DESIGN.md §10). Two unpacked paths take
// small-C dot products and small-m A^T*B products, and products below 32^3
// flops run a register-tiled small-product kernel; the selection depends
// only on the shape and the transposes (DESIGN.md §15). Every path has one
// FMA arithmetic, so its bits are the same in every build and on every
// SIMD variant (portable, AVX2, AVX-512) the host picks.
#pragma once

#include <cstddef>
#include <span>

namespace fedvr::tensor {

enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C.
/// A is (m x k) after op, B is (k x n) after op, C is (m x n).
/// Dimensions passed are the *post-op* m, n, k; lda/ldb are the true row
/// strides of the stored matrices.
void gemm(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
          std::size_t k, double alpha, std::span<const double> a,
          std::size_t lda, std::span<const double> b, std::size_t ldb,
          double beta, std::span<double> c, std::size_t ldc);

/// Convenience GEMM for packed (stride == #cols) matrices.
void gemm_packed(Trans trans_a, Trans trans_b, std::size_t m, std::size_t n,
                 std::size_t k, double alpha, std::span<const double> a,
                 std::span<const double> b, double beta, std::span<double> c);

/// True when C = A * B^T (gemm with kNo, kYes, unit alpha and zero beta)
/// gives each row of C the same bits for every row count m in [1, max_m]
/// over the same B, so a row's result does not depend on which rows share
/// its call. Dense's forward is this product: its per-sample outputs are
/// then the same in a full-batch chunk and in any smaller mini-batch.
[[nodiscard]] bool abt_rows_call_invariant(std::size_t max_m, std::size_t n,
                                           std::size_t k);

/// Row-wise argmax of a (rows x cols) matrix.
void argmax_rows(std::size_t rows, std::size_t cols,
                 std::span<const double> x, std::span<std::size_t> out);

/// Adds the bias vector (length cols) to each row of the matrix in place.
void add_bias_rows(std::size_t rows, std::size_t cols, std::span<double> x,
                   std::span<const double> bias);

/// bias_grad[j] = sum over rows of dy(row, j).
void sum_rows(std::size_t rows, std::size_t cols, std::span<const double> dy,
              std::span<double> bias_grad);

/// out (cols x rows) = in^T, with in a (rows x cols) row-major matrix.
/// Tiled; used to materialize W^T once per conv backward so every
/// per-sample GEMM reads unit-stride operands.
void transpose(std::size_t rows, std::size_t cols, std::span<const double> in,
               std::span<double> out);

/// out (rows x cols) += in^T, with in a (cols x rows) row-major matrix.
/// The serial partial-block reduce of conv2d backward: out element order is
/// fixed by the caller's ascending block loop, so pool-size bit-identity is
/// unaffected.
void add_transposed(std::size_t rows, std::size_t cols,
                    std::span<const double> in, std::span<double> out);

/// out[i] += sum over j of m(i, j), each row summed in ascending-j order
/// (the conv2d db partial accumulation; the per-row order is what the
/// determinism contract pins).
void add_row_sums(std::size_t rows, std::size_t cols,
                  std::span<const double> m, std::span<double> out);

}  // namespace fedvr::tensor
