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

/// Unaligned T-vector of `Bytes` bytes (element alignment; T itself at
/// sizeof(T)). Kernels template on the byte width and name the type inside:
/// a vector type passed as a template argument loses its alignment
/// attribute, and the compiler would then emit aligned loads.
template <typename T, int Bytes>
struct UVec {
  typedef T type __attribute__((vector_size(Bytes), aligned(alignof(T))));
};
template <>
struct UVec<float, 4> {
  using type = float;
};
template <>
struct UVec<double, 8> {
  using type = double;
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

#else  // scalar fallback

inline const char* width_label() { return "scalar"; }

template <typename T>
struct NativeVec {  // one lane: vector kernels run scalar
  using vec = T;
  using vec_u = T;
};

template <typename T, int Bytes>
struct UVec {  // one lane
  using type = T;
};

#endif

/// Widest vector of T in bytes (sizeof(T) on the scalar fallback), and the
/// next narrower width for a remainder: halve down to 16 bytes, then scalar.
template <typename T>
inline constexpr int kVecBytes = FMMFFT_SIMD_BYTES ? FMMFFT_SIMD_BYTES : int(sizeof(T));
template <typename T>
constexpr int step_down(int bytes) {
  return bytes > 16 ? bytes / 2 : int(sizeof(T));
}
template <typename T, int Bytes>
using uvec = typename UVec<T, Bytes>::type;

}  // namespace fmmfft::simd
