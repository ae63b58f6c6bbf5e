// Portable vector-extension substrate shared by the hot kernels.
//
// One ISA dispatch (AVX-512 / AVX / SSE2 / NEON / VSX, scalar fallback)
// serves both the register-tiled GEMM microkernel (src/blas/gemm.cpp) and
// the FMM's custom M2L/S2T contraction kernels (src/fmm/engine.cpp). The
// types are GCC/Clang `vector_size` vectors, so every per-lane operation is
// an exactly-rounded IEEE op: vectorized loops are value-identical to their
// scalar counterparts element by element, which is what lets the engine
// promise bit-identical outputs regardless of the ISA the TU was built for.
//
// Each translation unit that includes this header gets the widest vector
// its own compile flags allow — the blas/fft libraries build with
// `-march=native -ffp-contract=fast` (contraction is confined to the GEMM
// microkernel's accumulate, same order at any width), the fmm library with
// `-march=native -ffp-contract=off` (its kernels promise bit-identity with
// the unfused mul+add reference paths).
#pragma once

#include "common/types.hpp"

#if !defined(FMMFFT_NO_SIMD) && (defined(__GNUC__) || defined(__clang__)) &&                   \
    (defined(__AVX512F__) || defined(__AVX__) || defined(__SSE2__) || defined(__ARM_NEON) ||   \
     defined(__VSX__) || defined(__ALTIVEC__))
#define FMMFFT_SIMD 1
#if defined(__AVX512F__)
#define FMMFFT_SIMD_BYTES 64
#elif defined(__AVX__)
#define FMMFFT_SIMD_BYTES 32
#else
#define FMMFFT_SIMD_BYTES 16
#endif
#else
#define FMMFFT_SIMD 0
#define FMMFFT_SIMD_BYTES 0
#endif

namespace fmmfft::simd {

#if FMMFFT_SIMD

// Native-width vectors (alignment = vector size) and unaligned-access twins
// (alignment = element size) for streaming over tensors whose row strides
// are not vector-aligned (the engine's C·P / C·(P-1) pitches).
typedef float vfloat_t __attribute__((vector_size(FMMFFT_SIMD_BYTES)));
typedef double vdouble_t __attribute__((vector_size(FMMFFT_SIMD_BYTES)));
typedef float vfloat_u_t __attribute__((vector_size(FMMFFT_SIMD_BYTES), aligned(4)));
typedef double vdouble_u_t __attribute__((vector_size(FMMFFT_SIMD_BYTES), aligned(8)));

// GEMM-tile vectors: the microkernel caps float lanes at its MR = 8 tile
// height, so on AVX-512 floats drop to 32-byte vectors while doubles use
// the full 64 bytes (8 lanes == MR).
#define FMMFFT_SIMD_GEMM_BYTES_F (FMMFFT_SIMD_BYTES > 32 ? 32 : FMMFFT_SIMD_BYTES)
typedef float vfloat_gemm_t __attribute__((vector_size(FMMFFT_SIMD_GEMM_BYTES_F)));
typedef float vfloat_gemm_u_t __attribute__((vector_size(FMMFFT_SIMD_GEMM_BYTES_F), aligned(4)));

template <typename T>
struct NativeVec;
template <>
struct NativeVec<float> {
  using vec = vfloat_t;
  using vec_u = vfloat_u_t;
};
template <>
struct NativeVec<double> {
  using vec = vdouble_t;
  using vec_u = vdouble_u_t;
};

// Fixed sub-native widths for remainder step-down in the streaming helpers
// (only ever dereferenced when FMMFFT_SIMD_BYTES exceeds them).
typedef float vfloat32_u_t __attribute__((vector_size(32), aligned(4)));
typedef float vfloat16_u_t __attribute__((vector_size(16), aligned(4)));
typedef double vdouble32_u_t __attribute__((vector_size(32), aligned(8)));
typedef double vdouble16_u_t __attribute__((vector_size(16), aligned(8)));

template <typename T, int Bytes>
struct StepVec;
template <>
struct StepVec<float, 32> {
  using vec_u = vfloat32_u_t;
};
template <>
struct StepVec<float, 16> {
  using vec_u = vfloat16_u_t;
};
template <>
struct StepVec<double, 32> {
  using vec_u = vdouble32_u_t;
};
template <>
struct StepVec<double, 16> {
  using vec_u = vdouble16_u_t;
};

template <typename T>
struct GemmVec;
template <>
struct GemmVec<float> {
  using vec = vfloat_gemm_t;
  using vec_u = vfloat_gemm_u_t;
};
template <>
struct GemmVec<double> {
  using vec = vdouble_t;
  using vec_u = vdouble_u_t;
};

inline const char* width_label() {
  switch (FMMFFT_SIMD_BYTES) {
    case 64: return "vec512";
    case 32: return "vec256";
    default: return "vec128";
  }
}

/// dst[i] += x[i] * y[i] for i in [0, n). Native-width vector main loop,
/// then the remainder steps down through the sub-native power-of-two widths
/// (64→32→16 bytes) before falling to scalar, so a 6-element double tail
/// costs two vector ops instead of six scalar ones. The streams may be
/// mutually unaligned. Per element this is one multiply and one add in
/// index order — value-identical to the plain scalar loop at any vector
/// width (and to it bit-for-bit when the TU is compiled with contraction
/// off).
template <typename T>
inline void mul_add_stream(T* dst, const T* x, const T* y, index_t n) {
  using V = typename NativeVec<T>::vec_u;
  constexpr index_t VL = index_t(sizeof(V) / sizeof(T));
  index_t i = 0;
  for (; i + VL <= n; i += VL) {
    V d = *reinterpret_cast<const V*>(dst + i);
    d += *reinterpret_cast<const V*>(x + i) * *reinterpret_cast<const V*>(y + i);
    *reinterpret_cast<V*>(dst + i) = d;
  }
  if constexpr (sizeof(V) > 32) {
    using H = typename StepVec<T, 32>::vec_u;
    constexpr index_t HL = index_t(32 / sizeof(T));
    if (i + HL <= n) {
      H d = *reinterpret_cast<const H*>(dst + i);
      d += *reinterpret_cast<const H*>(x + i) * *reinterpret_cast<const H*>(y + i);
      *reinterpret_cast<H*>(dst + i) = d;
      i += HL;
    }
  }
  if constexpr (sizeof(V) > 16) {
    using Q = typename StepVec<T, 16>::vec_u;
    constexpr index_t QL = index_t(16 / sizeof(T));
    if (i + QL <= n) {
      Q d = *reinterpret_cast<const Q*>(dst + i);
      d += *reinterpret_cast<const Q*>(x + i) * *reinterpret_cast<const Q*>(y + i);
      *reinterpret_cast<Q*>(dst + i) = d;
      i += QL;
    }
  }
  for (; i < n; ++i) dst[i] += x[i] * y[i];
}

#else  // scalar fallback

inline const char* width_label() { return "scalar"; }

template <typename T>
struct NativeVec {  // one lane: vector kernels run scalar
  using vec = T;
  using vec_u = T;
};

template <typename T>
inline void mul_add_stream(T* dst, const T* x, const T* y, index_t n) {
  for (index_t i = 0; i < n; ++i) dst[i] += x[i] * y[i];
}

#endif

}  // namespace fmmfft::simd
