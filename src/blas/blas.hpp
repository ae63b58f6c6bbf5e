// Dense BLAS substrate — the library's stand-in for cuBLAS.
//
// Provides column-major GEMM, strided BatchedGEMM (the primitive the
// FMM-FFT leans on for S2M/M2M/L2L/L2T, §4.4–4.5), and GEMV (the §4.8
// reduction). Real float/double only: complex FMM data is flattened into
// real tensors with effective batch C·P (DESIGN.md §5).
#pragma once

#include "common/types.hpp"

namespace fmmfft::blas {

enum class Op { N, T };

/// C := alpha * op(A) * op(B) + beta * C, column-major.
/// op(A) is m×k, op(B) is k×n, C is m×n.
template <typename T>
void gemm(Op transa, Op transb, index_t m, index_t n, index_t k, T alpha, const T* a,
          index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc);

/// Strided batched GEMM: batch_count independent GEMMs with constant
/// pointer strides between consecutive problem instances (cuBLAS
/// gemmStridedBatched semantics).
template <typename T>
void gemm_strided_batched(Op transa, Op transb, index_t m, index_t n, index_t k, T alpha,
                          const T* a, index_t lda, index_t stride_a, const T* b, index_t ldb,
                          index_t stride_b, T beta, T* c, index_t ldc, index_t stride_c,
                          index_t batch_count);

/// y := alpha * op(A) * x + beta * y, column-major; op(A) is m×n.
template <typename T>
void gemv(Op trans, index_t m, index_t n, T alpha, const T* a, index_t lda, const T* x,
          index_t incx, T beta, T* y, index_t incy);

/// Flop count of one GEMM (multiply-add = 2 flops).
inline double gemm_flops(index_t m, index_t n, index_t k) {
  return 2.0 * double(m) * double(n) * double(k);
}

/// Which microkernel the build selected: "vec512" / "vec256" / "vec128"
/// (GCC/Clang vector extensions at that width) or "scalar" (fallback).
const char* simd_label();

}  // namespace fmmfft::blas
