// Stockham autosort FFT, composed four-step for long lines, with a Bluestein
// fallback for non-pow2 sizes.
//
// Power-of-two transforms run radix-4 Stockham stages (one radix-2 cleanup
// stage first when log2(n) is odd): a radix-4 pass does the work of two
// radix-2 passes with 3/4 of the twiddle multiplies and half the sweeps
// over the data.
//
// One kernel, `stockham<T, V, Inv>`, serves every line; its lane type V
// picks how many lines one butterfly transforms:
//   * V = T: one line stored as std::complex<T> — lone lines, batch tails
//     shorter than VL, sizes below 4·VL, and the non-pow2 sizes' Bluestein
//     transforms up to kLaneMaxN.
//     Once a stage's sub-transforms are VL long, its butterflies run VL of
//     them at once (the Run operand: one load splits VL consecutive
//     elements into re/im lanes).
//   * V = simd::NativeVec<T>::vec: VL lines at once (8 fp64 or 16 fp32 on
//     AVX-512). Element i of the VL lines is a split re/im pair of T-vectors
//     in a lane block leased from the thread's ScratchArena, so every
//     butterfly is full-width vector arithmetic with a broadcast twiddle and
//     no shuffles. The first stage reads the lines straight from their AoS
//     storage and the last writes them back, VL·VL register tiles at a time
//     (the transposition is fused); when the stage count is odd the
//     transposition is its own pass, the one the one-line kernel spends on
//     its copy. Both widths thus make exactly obs::stockham_passes passes.
//
// A line longer than kLaneMaxN is a four-step composition of the same
// kernel (Pow2), n = n1·n2: VL columns of the n1×n2 view at a time, read as
// contiguous runs, then VL rows at a time through the transposing load. The
// twiddle between the passes rides on the column pass's last store and the
// output transpose on the row pass's, so the line makes the two factors'
// passes and no more (obs::fft_passes), each in lane blocks that stay in L2.
//
// Every lane does the operations the one-line kernel does, in the same
// order, and the rounding is spelled out rather than left to the compiler:
// fused products are explicit fma calls and products that round alone pass
// through rounded(), so no contraction setting or vectorizer pattern can
// change a bit. A line's output bits thus do not depend on the width,
// batch, chunking or pool width that transformed it; every path — lone,
// batched, strided, Bluestein — runs the same composition for a given size.
//
// Plans are thread-safe: per-execution scratch comes from the thread-local
// ScratchArena, so any number of threads may execute one shared plan —
// which the pool-parallel execute_batched/execute_strided paths rely on.
#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <utility>

#include "blas/simd.hpp"
#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/permute.hpp"
#include "common/threadpool.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

#if FMMFFT_SIMD_BYTES > 0 && defined(__SSE2__)
#include <immintrin.h>
#endif

namespace fmmfft::fft {
namespace {

template <typename T>
using Cx = std::complex<T>;

/// Lane vector of the multi-line kernel and its width in lines.
template <typename T>
using LaneVec = typename simd::NativeVec<T>::vec;
template <typename T>
constexpr index_t kLanes = index_t(sizeof(LaneVec<T>) / sizeof(T));

/// Longest line the Stockham kernel transforms directly: its two lane
/// blocks (2·VL·n complex, 1 MiB for fp64 at VL = 8) still fit in L2.
/// Longer lines are four-step compositions of factors no longer than this.
constexpr index_t kLaneMaxN = index_t(1) << obs::kStockhamMaxLog2;

/// Line size from which the four-step's output stores bypass the cache.
/// Smaller lines keep their output cache-resident for its next reader;
/// from here on, streaming measured faster than plain stores, which read
/// every strided line for ownership first (EXPERIMENTS.md, four-step
/// section).
constexpr index_t kStreamBytes = index_t(1) << 19;

/// Where the ISA has a fused multiply-add, twiddle multiplies fuse one
/// product (see cmul); elsewhere every product rounds on its own.
#if defined(FP_FAST_FMA) && defined(FP_FAST_FMAF)
constexpr bool kHasFma = true;
#else
constexpr bool kHasFma = false;
#endif

/// One complex value per lane, split into real and imaginary lane vectors.
template <typename V>
struct CV {
  V re, im;
};

template <typename T, typename V>
inline V splat(T s) {
  if constexpr (std::is_same_v<V, T>) {
    return s;
  } else {
    V v{};
    for (index_t l = 0; l < kLanes<T>; ++l) v[l] = s;
    return v;
  }
}

/// a·b + c rounded once, lane by lane (one vfmadd at native width).
template <typename T, typename V>
inline V fmadd(V a, V b, V c) {
  if constexpr (std::is_same_v<V, T>) {
    return std::fma(a, b, c);
  } else {
    V r{};
    for (index_t l = 0; l < kLanes<T>; ++l) r[l] = std::fma(a[l], b[l], c[l]);
    return r;
  }
}

/// v, rounded and opaque to the optimizer: a product passed through here
/// can be neither contracted (the library builds with -ffp-contract=fast)
/// nor regrouped into the vectorizer's complex-multiply pattern, which
/// fuses one product even under -ffp-contract=off.
template <typename V>
inline V rounded(V v) {
#if defined(__GNUC__) && defined(__x86_64__) && defined(__AVX512F__)
  asm("" : "+v"(v));
#elif defined(__GNUC__) && defined(__x86_64__)
  asm("" : "+x"(v));
#elif defined(__GNUC__) && defined(__aarch64__)
  asm("" : "+w"(v));
#elif defined(__GNUC__)
  asm("" : "+m"(v));
#endif
  return v;
}

/// x·(wr + i·wi) with one rounding rule for every lane width. With `Fuse`
/// (and a hardware FMA) the first product of each part is fused:
///   re = fma(x.re, wr, −x.im·wi),  im = fma(x.re, wi, x.im·wr);
/// otherwise each product rounds on its own. These are the roundings the
/// fp64 kernel has always produced, kept so its outputs stay bit-stable.
template <bool Fuse, typename T, typename V>
inline CV<V> cmul(CV<V> x, V wr, V wi) {
  if constexpr (Fuse && kHasFma)
    return {fmadd<T>(x.re, wr, -(x.im * wi)), fmadd<T>(x.re, wi, x.im * wr)};
  else
    return {rounded(x.re * wr) - rounded(x.im * wi), rounded(x.re * wi) + rounded(x.im * wr)};
}

template <typename V>
inline CV<V> operator+(CV<V> a, CV<V> b) {
  return {a.re + b.re, a.im + b.im};
}
template <typename V>
inline CV<V> operator-(CV<V> a, CV<V> b) {
  return {a.re - b.re, a.im - b.im};
}

/// VL·VL transpose of r (row l → column l), log2(VL) rounds of pairwise
/// interleaves; each interleave is one two-source lane permute.
template <typename V, std::size_t... I>
inline void transpose(V* r, std::index_sequence<I...>) {
  constexpr std::size_t vl = sizeof...(I);
  if constexpr (vl > 1) {  // one lane (the scalar fallback) is its own transpose
    for (std::size_t round = 1; round < vl; round *= 2) {
      V t[vl]{};
      for (std::size_t i = 0; i < vl / 2; ++i) {
        t[2 * i] = __builtin_shufflevector(r[i], r[i + vl / 2], (I % 2 ? vl : 0) + I / 2 ...);
        t[2 * i + 1] =
            __builtin_shufflevector(r[i], r[i + vl / 2], (I % 2 ? vl : 0) + vl / 2 + I / 2 ...);
      }
      for (std::size_t i = 0; i < vl; ++i) r[i] = t[i];
    }
  }
}

/// VL consecutive std::complex<T> at p as one lane value: two unaligned
/// loads, split into re and im lanes.
template <typename T, std::size_t... I>
inline CV<LaneVec<T>> load_run(const Cx<T>* p, std::index_sequence<I...> = {}) {
  if constexpr (kLanes<T> == 1) {  // scalar fallback: a run is one element
    return {p->real(), p->imag()};
  } else if constexpr (sizeof...(I) == 0) {
    return load_run(p, std::make_index_sequence<std::size_t(kLanes<T>)>());
  } else {
    using U = typename simd::NativeVec<T>::vec_u;
    const T* q = reinterpret_cast<const T*>(p);
    const LaneVec<T> lo = *reinterpret_cast<const U*>(q);
    const LaneVec<T> hi = *reinterpret_cast<const U*>(q + kLanes<T>);
    return {__builtin_shufflevector(lo, hi, 2 * I...),
            __builtin_shufflevector(lo, hi, 2 * I + 1 ...)};
  }
}

/// One lane vector to q, which must be aligned to it, by an x86
/// non-temporal store: the line goes to memory without first being read
/// for ownership. A plain store elsewhere.
template <typename T>
inline void stream_vec(T* q, LaneVec<T> v) {
#if FMMFFT_SIMD_BYTES == 64
  if constexpr (sizeof(T) == 8) _mm512_stream_pd(q, v); else _mm512_stream_ps(q, v);
#elif FMMFFT_SIMD_BYTES == 32
  if constexpr (sizeof(T) == 8) _mm256_stream_pd(q, v); else _mm256_stream_ps(q, v);
#elif FMMFFT_SIMD_BYTES == 16 && defined(__SSE2__)
  if constexpr (sizeof(T) == 8) _mm_stream_pd(q, v); else _mm_stream_ps(q, v);
#else
  *reinterpret_cast<LaneVec<T>*>(q) = v;
#endif
}

/// Orders this thread's non-temporal stores before whatever it does next
/// (a release to another thread included).
inline void stream_fence() {
#if FMMFFT_SIMD_BYTES > 0 && defined(__SSE2__)
  _mm_sfence();
#endif
}

/// The inverse of load_run: interleave v's lanes back into p[0 .. VL). With
/// Stream, through stream_vec (p aligned to the lane vector).
template <typename T, bool Stream = false, std::size_t... I>
inline void store_run(Cx<T>* p, CV<LaneVec<T>> v, std::index_sequence<I...> = {}) {
  if constexpr (kLanes<T> == 1) {
    *p = Cx<T>(v.re, v.im);
  } else if constexpr (sizeof...(I) == 0) {
    store_run<T, Stream>(p, v, std::make_index_sequence<std::size_t(kLanes<T>)>());
  } else {
    using U = typename simd::NativeVec<T>::vec_u;
    constexpr std::size_t vl = sizeof...(I);
    T* q = reinterpret_cast<T*>(p);
    const LaneVec<T> lo = __builtin_shufflevector(v.re, v.im, (I % 2 ? vl : 0) + I / 2 ...);
    const LaneVec<T> hi =
        __builtin_shufflevector(v.re, v.im, (I % 2 ? vl : 0) + vl / 2 + I / 2 ...);
    if constexpr (Stream) {
      stream_vec(q, lo);
      stream_vec(q + vl, hi);
    } else {
      *reinterpret_cast<U*>(q) = lo;
      *reinterpret_cast<U*>(q + vl) = hi;
    }
  }
}

// Stage operands. load(i)/store(i) move element i of the operand as one
// CV<V>; consecutive q of a stage are kStep elements apart. Tiled operands
// (Lines, which transposes VL lines into lanes) move kTile consecutive
// elements at once instead (load_tile/store_tile).

/// One line of std::complex<T>, for the one-line kernel (V = T).
template <typename T>
struct Line {
  static constexpr index_t kStep = 1;
  Cx<T>* p;
  CV<T> load(index_t i) const { return {p[i].real(), p[i].imag()}; }
  void store(index_t i, CV<T> v) const { p[i] = Cx<T>(v.re, v.im); }
};

/// VL lines of std::complex<T> at pitch `ld` (element i of line l is
/// p[l·ld + i]), moved VL consecutive elements at a time through a VL·VL
/// register transpose: tile element e holds element i + e of every line.
template <typename T>
struct Lines {
  using V = LaneVec<T>;
  static constexpr index_t kTile = kLanes<T>;
  Cx<T>* p;
  index_t ld;

  void load_tile(index_t i, CV<V>* out) const {
    V re[kTile]{}, im[kTile]{};
    for (index_t l = 0; l < kTile; ++l) {
      const CV<V> run = load_run(p + l * ld + i);
      re[l] = run.re;
      im[l] = run.im;
    }
    transpose(re, std::make_index_sequence<std::size_t(kTile)>());
    transpose(im, std::make_index_sequence<std::size_t(kTile)>());
    for (index_t e = 0; e < kTile; ++e) out[e] = {re[e], im[e]};
  }
  void store_tile(index_t i, const CV<V>* in) const {
    V re[kTile]{}, im[kTile]{};
    for (index_t e = 0; e < kTile; ++e) {
      re[e] = in[e].re;
      im[e] = in[e].im;
    }
    transpose(re, std::make_index_sequence<std::size_t(kTile)>());
    transpose(im, std::make_index_sequence<std::size_t(kTile)>());
    for (index_t l = 0; l < kTile; ++l) store_run(p + l * ld + i, CV<V>{re[l], im[l]});
  }
};

/// Operands that move kTile elements per access (Lines).
template <typename Op>
concept Tiled = requires { Op::kTile; };

/// A lane block: element i of VL lines as one CV<V>.
template <typename V>
struct Lanes {
  static constexpr index_t kStep = 1;
  CV<V>* p;
  CV<V> load(index_t i) const { return p[i]; }
  void store(index_t i, CV<V> v) const { p[i] = v; }
};

/// One line with VL consecutive elements as lanes: element i is the run
/// p[i .. i+VL), so a stage steps q by VL. Vectorizes a lone line's stages
/// once their sub-transforms are at least VL long.
template <typename T>
struct Run {
  static constexpr index_t kStep = kLanes<T>;
  Cx<T>* p;
  CV<LaneVec<T>> load(index_t i) const { return load_run(p + i); }
  void store(index_t i, CV<LaneVec<T>> v) const { store_run(p + i, v); }
};

/// VL adjacent lines at element pitch `ld`: element i of the VL lines is
/// the run p[i·ld .. i·ld + VL), so lanes load and store with no transpose
/// (the four-step's columns, and its output rows). With `w`, a store first
/// multiplies lane l of element i by w[i·ld + l], conjugated when Inv: the
/// four-step twiddle, fused into the column pass's last stage. With
/// `stream`, stores bypass the cache (store_run<T, true>).
template <typename T, bool Inv = false>
struct Runs {
  using V = LaneVec<T>;
  static constexpr index_t kStep = 1;
  Cx<T>* p;
  index_t ld;
  const Cx<T>* w = nullptr;
  bool stream = false;
  CV<V> load(index_t i) const { return load_run(p + i * ld); }
  void store(index_t i, CV<V> v) const {
    if (w) {
      const CV<V> t = load_run(w + i * ld);
      if constexpr (Inv)
        v = cmul<true, T>(v, t.re, -t.im);
      else
        v = cmul<true, T>(v, t.re, t.im);
    }
    if (stream)
      store_run<T, true>(p + i * ld, v);
    else
      store_run(p + i * ld, v);
  }
};

/// Twiddle tables for the mixed radix-4/radix-2 Stockham schedule of a pow2
/// transform. When log2(n) is odd the first stage is radix-2 (storing
/// exp(-2πi·p/len) for p < len/2); every other stage is radix-4, storing
/// the interleaved triplet (w^p, w^2p, w^3p), w = exp(-2πi/len), p < len/4.
template <typename T>
struct Twiddles {
  struct Stage {
    int radix;
    index_t len;  ///< current transform length when this stage runs
    index_t off;  ///< offset into w
  };
  std::vector<Cx<T>, AlignedAllocator<Cx<T>>> w;
  std::vector<Stage> stages;

  explicit Twiddles(index_t n) {
    index_t len = n;
    index_t total = 0;
    if (len >= 2 && ilog2_exact(n) % 2 == 1) {
      stages.push_back({2, len, total});
      total += len / 2;
      len /= 2;
    }
    for (; len >= 4; len /= 4) {
      stages.push_back({4, len, total});
      total += 3 * (len / 4);
    }
    FMMFFT_CHECK(len == 1 || n == 1);
    w.resize(static_cast<std::size_t>(total));
    for (const Stage& st : stages) {
      const long double theta = 2.0L * pi_v<long double> / (long double)st.len;
      auto tw = [&](index_t p) {
        return Cx<T>((T)std::cos((long double)p * theta),
                     (T)-std::sin((long double)p * theta));
      };
      if (st.radix == 2) {
        for (index_t p = 0; p < st.len / 2; ++p) w[(std::size_t)(st.off + p)] = tw(p);
      } else {
        for (index_t p = 0; p < st.len / 4; ++p) {
          w[(std::size_t)(st.off + 3 * p)] = tw(p);
          w[(std::size_t)(st.off + 3 * p + 1)] = tw(2 * p);
          w[(std::size_t)(st.off + 3 * p + 2)] = tw(3 * p);
        }
      }
    }
  }
};

/// Radix-R DIF butterfly of x into y; w[j-1] twiddles output j. Radix 4 is
/// algebraically two radix-2 stages fused:
///   y0 = (a+c) + (b+d)
///   y1 = w^p  ·((a−c) ∓ i(b−d))   (− forward / + inverse)
///   y2 = w^2p·((a+c) − (b+d))
///   y3 = w^3p·((a−c) ± i(b−d))
/// The inverse radix-2 stage rounds each product (see cmul).
template <typename T, typename V, bool Inv, int R>
inline void butterfly(const CV<V>* x, CV<V>* y, const CV<V>* w) {
  if constexpr (R == 2) {
    y[0] = x[0] + x[1];
    y[1] = cmul<!Inv, T>(x[0] - x[1], w[0].re, w[0].im);
  } else {
    const CV<V> t0 = x[0] + x[2], t1 = x[0] - x[2], t2 = x[1] + x[3], bd = x[1] - x[3];
    // ∓i·(b−d): rotate by −90° forward, +90° inverse.
    const CV<V> t3 = Inv ? CV<V>{-bd.im, bd.re} : CV<V>{bd.im, -bd.re};
    y[0] = t0 + t2;
    y[1] = cmul<true, T>(t1 + t3, w[0].re, w[0].im);
    y[2] = cmul<true, T>(t0 - t2, w[1].re, w[1].im);
    y[3] = cmul<true, T>(t1 - t3, w[2].re, w[2].im);
  }
}

/// One radix-R Stockham stage of m butterfly columns at sub-transform
/// stride s, src → dst: dst[s(Rp+j) + q] from src[s(p+jm) + q]. `Inv`
/// selects the conjugated twiddles. A transposing first stage (s = 1) reads
/// whole tiles of consecutive p; a transposing last stage (m = 1) writes
/// whole tiles of consecutive q (the lane path takes only n ≥ 4·VL, so
/// both hold whole tiles).
template <typename T, typename V, bool Inv, int R, typename Src, typename Dst>
void radix_stage(Src src, Dst dst, index_t m, const Cx<T>* w, index_t s) {
  const auto twiddles = [&](index_t p, CV<V>* wv) {
    for (int j = 0; j < R - 1; ++j) {
      const Cx<T> wk = w[(R - 1) * p + j];
      wv[j] = {splat<T, V>(wk.real()), splat<T, V>(Inv ? -wk.imag() : wk.imag())};
    }
  };
  CV<V> x[R]{}, y[R]{}, wv[R - 1]{};
  if constexpr (Tiled<Src>) {
    constexpr index_t B = Src::kTile;
    FMMFFT_ASSERT(s == 1 && m % B == 0);
    CV<V> tile[R][B]{};
    for (index_t p0 = 0; p0 < m; p0 += B) {
      for (int j = 0; j < R; ++j) src.load_tile(p0 + j * m, tile[j]);
      for (index_t e = 0; e < B; ++e) {
        twiddles(p0 + e, wv);
        for (int j = 0; j < R; ++j) x[j] = tile[j][e];
        butterfly<T, V, Inv, R>(x, y, wv);
        for (int j = 0; j < R; ++j) dst.store(R * (p0 + e) + j, y[j]);
      }
    }
  } else if constexpr (Tiled<Dst>) {
    constexpr index_t B = Dst::kTile;
    FMMFFT_ASSERT(m == 1 && s % B == 0);
    CV<V> tile[R][B]{};
    twiddles(0, wv);
    for (index_t q0 = 0; q0 < s; q0 += B) {
      for (index_t e = 0; e < B; ++e) {
        for (int j = 0; j < R; ++j) x[j] = src.load(q0 + e + j * s);
        butterfly<T, V, Inv, R>(x, y, wv);
        for (int j = 0; j < R; ++j) tile[j][e] = y[j];
      }
      for (int j = 0; j < R; ++j) dst.store_tile(j * s + q0, tile[j]);
    }
  } else {
    static_assert(Src::kStep == Dst::kStep);
    for (index_t p = 0; p < m; ++p) {
      twiddles(p, wv);
      for (index_t q = 0; q < s; q += Src::kStep) {
        for (int j = 0; j < R; ++j) x[j] = src.load(s * (p + j * m) + q);
        butterfly<T, V, Inv, R>(x, y, wv);
        for (int j = 0; j < R; ++j) dst.store(s * (R * p + j) + q, y[j]);
      }
    }
  }
}

template <typename T, typename V, bool Inv, typename Src, typename Dst>
void stage(Src src, Dst dst, const typename Twiddles<T>::Stage& st, const Cx<T>* w, index_t s) {
  if constexpr (std::is_same_v<V, T> && kLanes<T> > 1) {
    // A lone line: once its sub-transforms are a vector long, run VL of
    // them per butterfly.
    if (s % kLanes<T> == 0)
      return stage<T, LaneVec<T>, Inv>(Run<T>{src.p}, Run<T>{dst.p}, st, w, s);
  }
  if (st.radix == 2)
    radix_stage<T, V, Inv, 2>(src, dst, st.len / 2, w, s);
  else
    radix_stage<T, V, Inv, 4>(src, dst, st.len / 4, w, s);
}

/// The pow2 Stockham transform of `in` into `out` (length n), ping-ponging
/// through b0 and b1. The first stage reads `in` and the last writes `out`;
/// with an odd stage count a leading copy in → b0 keeps that so. Exactly
/// obs::stockham_passes(log2 n) passes. The one-line kernel transforms in
/// place and passes its line itself as b1, which only middle stages touch.
template <typename T, typename V, bool Inv, typename In, typename Out, typename Buf>
void stockham(In in, Out out, Buf b0, Buf b1, index_t n, const Twiddles<T>& tw) {
  const index_t k = index_t(tw.stages.size());
  if (k == 0) return;
  const Buf buf[2] = {b0, b1};
  int at = -1;  // buffer holding the data, -1 while it is still in `in`
  if (k % 2 == 1) {
    if constexpr (Tiled<In>) {
      CV<V> tile[In::kTile]{};
      for (index_t i = 0; i < n; i += In::kTile) {
        in.load_tile(i, tile);
        for (index_t e = 0; e < In::kTile; ++e) b0.store(i + e, tile[e]);
      }
    } else {
      for (index_t i = 0; i < n; ++i) b0.store(i, in.load(i));
    }
    at = 0;
  }
  index_t s = 1;
  for (index_t i = 0; i < k; ++i) {
    const auto& st = tw.stages[(std::size_t)i];
    const Cx<T>* w = tw.w.data() + st.off;
    if (i == k - 1)
      stage<T, V, Inv>(buf[at], out, st, w, s);
    else if (at < 0)
      stage<T, V, Inv>(in, buf[0], st, w, s);
    else
      stage<T, V, Inv>(buf[at], buf[1 - at], st, w, s);
    at = at < 0 ? 0 : 1 - at;
    s *= st.radix;
  }
}

/// The pow2 transform of one size n, the core every plan path runs. Up to
/// kLaneMaxN it is the Stockham kernel. Above, it is a four-step
/// composition of the kernel, n = n1·n2 (obs::four_step_log2_n1), input
/// index j = j1·n2 + j2 and output index k = k1 + n1·k2:
///   * column pass: VL adjacent columns j2.. at once, element j1 being the
///     run data + j1·n2 + j2 (Runs); the last stage stores
///     w_n^{j2·k1}·FFT_n1(column j2)[k1] into an n-element intermediate,
///     row k1 at pitch n2;
///   * row pass: VL rows k1.. at once through the transposing Lines load;
///     the last stage stores element k2 of those rows as the run
///     data + k1 + n1·k2 (Runs), so the output transpose is free.
/// A row factor above the limit recurses: each row runs as a lone line in
/// the intermediate, and one more pass transposes the rows into place.
/// The limit is 2^max_log2, kLaneMaxN but in tests (detail::pow2_line).
template <typename T>
struct Pow2 {
  index_t n, n1, n2;                 ///< n1 = n, n2 = 1 for the Stockham kernel
  Twiddles<T> tw;                    ///< stages of n1
  std::unique_ptr<const Pow2> rows;  ///< four-step: the row factor n2
  /// four-step: w[k1·n2 + j2] = exp(−2πi·j2·k1/n), exactly rounded from
  /// long double. Its n entries stand in for the ~n of n's Stockham table.
  std::vector<Cx<T>, AlignedAllocator<Cx<T>>> w;

  explicit Pow2(index_t n_, index_t max_log2 = obs::kStockhamMaxLog2)
      : n(n_),
        n1(ilog2_exact(n_) <= max_log2
               ? n_
               : index_t(1) << obs::four_step_log2_n1(ilog2_exact(n_), max_log2)),
        n2(n_ / n1),
        tw(n1) {
    if (n2 == 1) return;
    FMMFFT_CHECK_MSG(n1 >= 4 * kLanes<T> && n2 >= 4 * kLanes<T>,
                     "four-step factors must be at least four vectors long");
    rows = std::make_unique<const Pow2>(n2, max_log2);
    w.resize(static_cast<std::size_t>(n));
    const long double theta = 2.0L * pi_v<long double> / (long double)n;
    for (index_t k1 = 0; k1 < n1; ++k1)
      for (index_t j2 = 0; j2 < n2; ++j2) {
        const long double a = (long double)(j2 * k1) * theta;
        w[(std::size_t)(k1 * n2 + j2)] = Cx<T>((T)std::cos(a), (T)-std::sin(a));
      }
  }

  /// One line in place; scratch comes from the thread's arena.
  template <bool Inv>
  void line(Cx<T>* data) const {
    if (!rows) {
      ScratchBlock<Cx<T>> scratch(n);
      const Line<T> io{data};
      stockham<T, T, Inv>(io, io, Line<T>{scratch.data()}, io, n, tw);
      return;
    }
    using V = LaneVec<T>;
    ScratchBlock<Cx<T>> mid(n);
    {
      ScratchBlock<CV<V>> buf(2 * n1);
      const Lanes<V> b0{buf.data()}, b1{buf.data() + n1};
      for (index_t j2 = 0; j2 < n2; j2 += kLanes<T>)
        stockham<T, V, Inv>(Runs<T>{data + j2, n2},
                            Runs<T, Inv>{mid.data() + j2, n2, w.data() + j2}, b0, b1, n1, tw);
    }
    if (rows->rows) {
      for (index_t k1 = 0; k1 < n1; ++k1) rows->template line<Inv>(mid.data() + k1 * n2);
      fmmfft::detail::transpose_strided_serial(mid.data(), n2, data, n1, n2, n1);
      return;
    }
    ScratchBlock<CV<V>> buf(2 * n2);
    const Lanes<V> b0{buf.data()}, b1{buf.data() + n2};
    const auto row_group = [&](index_t k1, bool stream) {
      stockham<T, V, Inv>(Lines<T>{mid.data() + k1 * n2, n2},
                          Runs<T>{data + k1, n1, nullptr, stream}, b0, b1, n2, rows->tw);
    };
    // The row pass writes each run to a different page. A line of at least
    // kStreamBytes streams its runs to memory rather than read every line
    // for ownership first. Streamed runs must be vector-aligned: the groups
    // start `shift` rows in, where data + shift is, and when that shift is
    // not 0 two plainly stored groups at either end cover the rows left
    // over (rewriting some rows of the aligned groups with the same bits).
    const auto addr = reinterpret_cast<std::uintptr_t>(data);
    const bool stream = n * index_t(sizeof(Cx<T>)) >= kStreamBytes && addr % sizeof(Cx<T>) == 0;
    const index_t shift =
        stream ? index_t((sizeof(V) - addr % sizeof(V)) % sizeof(V) / sizeof(Cx<T>)) : 0;
    if (shift > 0) row_group(0, false);
    for (index_t k1 = shift; k1 + kLanes<T> <= n1; k1 += kLanes<T>) row_group(k1, stream);
    if (shift > 0) row_group(n1 - kLanes<T>, false);
    if (stream) stream_fence();
  }
};

}  // namespace

namespace detail {

template <typename T>
void pow2_line(Cx<T>* data, index_t n, index_t max_log2, Direction dir) {
  FMMFFT_CHECK_MSG(is_pow2(n) && max_log2 >= obs::kFourStepRowLog2 &&
                       max_log2 <= obs::kStockhamMaxLog2,
                   "pow2_line needs a pow2 size and a limit in [2^7, kLaneMaxN]");
  const Pow2<T> core(n, max_log2);
  if (dir == Direction::Forward)
    core.template line<false>(data);
  else
    core.template line<true>(data);
}

}  // namespace detail

template <typename T>
void dft_reference(const Cx<T>* x, Cx<T>* y, index_t n, Direction dir) {
  FMMFFT_CHECK(x != y);
  const long double sgn = dir == Direction::Forward ? -1.0L : 1.0L;
  for (index_t i = 0; i < n; ++i) {
    std::complex<long double> s = 0;
    for (index_t j = 0; j < n; ++j) {
      // Reduce i*j mod n before the trig call to keep the argument small.
      long double ang = sgn * 2.0L * pi_v<long double> *
                        (long double)((__int128)i * j % n) / (long double)n;
      s += std::complex<long double>(x[j]) *
           std::complex<long double>(std::cos(ang), std::sin(ang));
    }
    y[i] = Cx<T>((T)s.real(), (T)s.imag());
  }
}

// ---------------------------------------------------------------------------
// Plan1D

template <typename T>
struct Plan1D<T>::Impl {
  index_t n;
  bool pow2;
  bool lanes;  ///< batches run VL lines at a time through the lane kernel
  Pow2<T> core;  ///< the pow2 transform of n, or of m for Bluestein

  // Bluestein state (pow2 == false): transform size m >= 2n-1, chirp c,
  // and the precomputed forward-FFT of the chirp filter for each direction.
  index_t m = 0;
  Buffer<Cx<T>> chirp_fwd, chirp_inv;           // c[k], per direction
  Buffer<Cx<T>> filter_fft_fwd, filter_fft_inv; // FFT(b), per direction

  static index_t next_pow2(index_t v) {
    index_t p = 1;
    while (p < v) p *= 2;
    return p;
  }

  explicit Impl(index_t n_)
      : n(n_),
        pow2(is_pow2(n_)),
        lanes(kLanes<T> > 1 && pow2 && n_ >= 4 * kLanes<T> && n_ <= kLaneMaxN),
        core(pow2 ? n_ : next_pow2(2 * n_ - 1)) {
    FMMFFT_CHECK_MSG(n >= 1, "FFT size must be positive");
    if (!pow2) {
      m = next_pow2(2 * n - 1);
      chirp_fwd = Buffer<Cx<T>>(n);
      chirp_inv = Buffer<Cx<T>>(n);
      filter_fft_fwd = Buffer<Cx<T>>(m);
      filter_fft_inv = Buffer<Cx<T>>(m);
      for (int d = 0; d < 2; ++d) {
        const long double sgn = d == 0 ? -1.0L : 1.0L;
        auto& c = d == 0 ? chirp_fwd : chirp_inv;
        auto& bf = d == 0 ? filter_fft_fwd : filter_fft_inv;
        for (index_t k = 0; k < n; ++k) {
          // k^2 mod 2n keeps the phase argument small for huge k.
          long double ang =
              sgn * pi_v<long double> * (long double)((__int128)k * k % (2 * n)) / (long double)n;
          c[k] = Cx<T>((T)std::cos(ang), (T)std::sin(ang));
        }
        bf.fill(Cx<T>(0));
        for (index_t k = 0; k < n; ++k) {
          bf[k] = std::conj(c[k]);
          if (k > 0) bf[m - k] = std::conj(c[k]);
        }
        core.template line<false>(bf.data());
      }
    }
  }

  /// Transform one contiguous line in place. const and thread-safe: all
  /// mutable state is leased from the calling thread's ScratchArena.
  void run_one(Cx<T>* data, Direction dir) const {
    if (pow2) {
      if (dir == Direction::Forward)
        core.template line<false>(data);
      else
        core.template line<true>(data);
      return;
    }
    // Bluestein: y[k] = c[k] * IFFT( FFT(x.*c) .* FFT(b) )[k] / m
    const Buffer<Cx<T>>& c = dir == Direction::Forward ? chirp_fwd : chirp_inv;
    const Buffer<Cx<T>>& bf = dir == Direction::Forward ? filter_fft_fwd : filter_fft_inv;
    ScratchBlock<Cx<T>> work(m);
    const Line<T> x{data}, wk{work.data()};
    const auto times = [](CV<T> v, Cx<T> z) { return cmul<true, T>(v, z.real(), z.imag()); };
    for (index_t k = 0; k < n; ++k) wk.store(k, times(x.load(k), c[k]));
    for (index_t k = n; k < m; ++k) work[k] = Cx<T>(0);
    core.template line<false>(work.data());
    for (index_t k = 0; k < m; ++k) wk.store(k, times(wk.load(k), bf[k]));
    core.template line<true>(work.data());
    const T inv_m = T(1) / T(m);
    for (index_t k = 0; k < n; ++k) {
      const CV<T> y = times(wk.load(k), c[k]);
      x.store(k, {y.re * inv_m, y.im * inv_m});
    }
  }

  /// `count` contiguous lines at pitch `ld`: whole lane groups through the
  /// lane kernel (ping-ponging between two n-element lane blocks), the rest
  /// — and every line of a four-step size — one at a time.
  void run_lines(Cx<T>* data, index_t count, index_t ld, Direction dir) const {
    index_t g = 0;
    if (lanes && count >= kLanes<T>) {
      using V = LaneVec<T>;
      ScratchBlock<CV<V>> buf(2 * n);
      const Lanes<V> b0{buf.data()}, b1{buf.data() + n};
      for (; g + kLanes<T> <= count; g += kLanes<T>) {
        const Lines<T> io{data + g * ld, ld};
        if (dir == Direction::Forward)
          stockham<T, V, false>(io, io, b0, b1, n, core.tw);
        else
          stockham<T, V, true>(io, io, b0, b1, n, core.tw);
      }
    }
    for (; g < count; ++g) run_one(data + g * ld, dir);
  }

  /// `count` lines, element j of line g at data[g·dist + j·stride], on the
  /// pool in chunks of whole groups. Strided lines are gathered a group at a
  /// time into a contiguous block, transformed there and scattered back;
  /// with dist == 1 each gathered element is VL adjacent complex values.
  void run_batch(Cx<T>* data, index_t count, index_t stride, index_t dist, Direction dir) const {
    const index_t w = group();
    parallel_for(
        (count + w - 1) / w,
        [&](index_t b, index_t e) {
          const index_t lo = b * w, hi = std::min(count, e * w);
          if (stride == 1) return run_lines(data + lo * dist, hi - lo, dist, dir);
          // The block is an arena lease per chunk, not a per-call heap
          // allocation (and per-thread, so chunks never share it).
          ScratchBlock<Cx<T>> block(w * n);
          Cx<T>* lines = block.data();
          for (index_t g = lo; g < hi; g += w) {
            const index_t c = std::min(w, hi - g);
            Cx<T>* base = data + g * dist;
            for (index_t j = 0; j < n; ++j)
              for (index_t l = 0; l < c; ++l) lines[l * n + j] = base[l * dist + j * stride];
            run_lines(lines, c, n, dir);
            for (index_t j = 0; j < n; ++j)
              for (index_t l = 0; l < c; ++l) base[l * dist + j * stride] = lines[l * n + j];
          }
        },
        batch_grain());
  }

  /// Lines per unit of batch work: a lane group, or one line.
  index_t group() const { return lanes ? kLanes<T> : 1; }

  /// Grain for batch parallelism, in groups: amortize chunk dispatch over
  /// at least ~2^14 points' worth of transforms so tiny-n batches don't
  /// drown in scheduling overhead.
  index_t batch_grain() const {
    const index_t lines = std::max<index_t>(1, (index_t(1) << 14) / std::max<index_t>(1, n));
    return (lines + group() - 1) / group();
  }
};

template <typename T>
Plan1D<T>::Plan1D(index_t n) : impl_(std::make_unique<Impl>(n)) {}
template <typename T>
Plan1D<T>::~Plan1D() = default;
template <typename T>
Plan1D<T>::Plan1D(Plan1D&&) noexcept = default;
template <typename T>
Plan1D<T>& Plan1D<T>::operator=(Plan1D&&) noexcept = default;

template <typename T>
index_t Plan1D<T>::size() const {
  return impl_->n;
}

namespace {

/// One ledger hook for all plan entry points. Flops are the model count
/// 5·n·log2(n) per transform (what the §5 analysis uses), not the larger
/// operation count of the Bluestein fallback for non-pow2 sizes.
/// `gather_scatter` marks the strided path's extra copy through the
/// gathered block. Traffic counts data passes only; twiddle/chirp/filter table
/// reads are excluded (§5.3 convention, same as the FMM operator tables).
inline void count_transforms(index_t n, bool pow2, index_t bluestein_m, double cx_bytes,
                             index_t count, bool gather_scatter = false) {
  if (!obs::traffic_enabled()) return;
  double rd_cx, wr_cx;  // complex elements per transform
  if (pow2) {
    // Each Stockham stage reads and writes the whole line once, and so does
    // each of a four-step's (obs::fft_passes).
    const double p = double(obs::fft_passes(ilog2_exact(n)));
    rd_cx = wr_cx = p * double(n);
  } else {
    // Bluestein: chirp-modulate into work (rd n, wr m), two size-m
    // transforms, the pointwise filter pass (rd m, wr m), and the
    // demodulated writeback (rd n, wr n).
    const double p = double(obs::fft_passes(ilog2_exact(bluestein_m)));
    rd_cx = (2.0 * p + 1.0) * double(bluestein_m) + 2.0 * double(n);
    wr_cx = (2.0 * p + 2.0) * double(bluestein_m) + double(n);
  }
  if (gather_scatter) {  // strided gather into the line buffer + scatter
    rd_cx += 2.0 * double(n);
    wr_cx += 2.0 * double(n);
  }
  FMMFFT_TRAFFIC_RW("fft", rd_cx * double(count) * cx_bytes, wr_cx * double(count) * cx_bytes,
                    fft_flops(n) * double(count));
}

}  // namespace

template <typename T>
void Plan1D<T>::execute(Cx<T>* data, Direction dir) const {
  FMMFFT_SPAN("FFT");
  FMMFFT_TRAFFIC_SECONDS_IF("fft", !ThreadPool::in_task());
  count_transforms(impl_->n, impl_->pow2, impl_->m, 2.0 * sizeof(T), 1);
  impl_->run_one(data, dir);
}

template <typename T>
void Plan1D<T>::execute_batched(Cx<T>* data, index_t count, Direction dir) const {
  FMMFFT_SPAN("FFT-batched");
  // Inside a pool chunk the call is a slice of its caller's stage, which
  // books the stage's wall time itself (dist::detail::forward_lines); the
  // slices' seconds would add up thread-seconds.
  FMMFFT_TRAFFIC_SECONDS_IF("fft", !ThreadPool::in_task());
  count_transforms(impl_->n, impl_->pow2, impl_->m, 2.0 * sizeof(T), count);
  impl_->run_batch(data, count, 1, impl_->n, dir);
}

template <typename T>
void Plan1D<T>::execute_strided(Cx<T>* data, index_t count, index_t stride, index_t dist,
                                Direction dir) const {
  FMMFFT_SPAN("FFT-strided");
  FMMFFT_TRAFFIC_SECONDS_IF("fft", !ThreadPool::in_task());
  count_transforms(impl_->n, impl_->pow2, impl_->m, 2.0 * sizeof(T), count,
                   /*gather_scatter=*/stride != 1);
  impl_->run_batch(data, count, stride, dist, dir);
}

// ---------------------------------------------------------------------------
// Plan cache

namespace {

std::mutex& plan_cache_mu() {
  static std::mutex mu;
  return mu;
}

PlanCacheStats& plan_cache_stats_locked() {
  static PlanCacheStats stats;
  return stats;
}

/// LRU map n -> shared plan, one per element type. Small and linear-scanned:
/// a run touches a handful of distinct sizes (N, M, P, Bluestein m).
template <typename T>
struct PlanCache {
  static constexpr std::size_t kCapacity = 32;
  struct Entry {
    index_t n;
    std::uint64_t tick;
    std::shared_ptr<const Plan1D<T>> plan;
  };
  std::vector<Entry> entries;
  std::uint64_t tick = 0;

  static PlanCache& instance() {
    static PlanCache cache;
    return cache;
  }
};

}  // namespace

template <typename T>
std::shared_ptr<const Plan1D<T>> cached_plan1d(index_t n) {
  auto& cache = PlanCache<T>::instance();
  std::lock_guard<std::mutex> lk(plan_cache_mu());
  for (auto& e : cache.entries) {
    if (e.n == n) {
      e.tick = ++cache.tick;
      plan_cache_stats_locked().hits++;
      return e.plan;
    }
  }
  plan_cache_stats_locked().misses++;
  auto plan = std::make_shared<const Plan1D<T>>(n);
  if (cache.entries.size() >= PlanCache<T>::kCapacity) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < cache.entries.size(); ++i)
      if (cache.entries[i].tick < cache.entries[victim].tick) victim = i;
    cache.entries[victim] = cache.entries.back();
    cache.entries.pop_back();
    plan_cache_stats_locked().evictions++;
  }
  cache.entries.push_back({n, ++cache.tick, plan});
  return plan;
}

PlanCacheStats plan_cache_stats() {
  std::lock_guard<std::mutex> lk(plan_cache_mu());
  return plan_cache_stats_locked();
}

// ---------------------------------------------------------------------------
// Plan2D

template <typename T>
struct Plan2D<T>::Impl {
  index_t n0, n1;
  std::shared_ptr<const Plan1D<T>> p0, p1;

  Impl(index_t n0_, index_t n1_)
      : n0(n0_), n1(n1_), p0(cached_plan1d<T>(n0_)), p1(cached_plan1d<T>(n1_)) {}

  void run(Cx<T>* data, Direction dir) const {
    // FFT the n1 contiguous length-n0 lines, transpose, FFT the n0
    // length-n1 lines, transpose back. Scratch is an arena lease, so a
    // shared Plan2D is executable from any number of threads.
    ScratchBlock<Cx<T>> scratch(n0 * n1);
    p0->execute_batched(data, n1, dir);
    transpose_blocked(data, scratch.data(), n0, n1);
    p1->execute_batched(scratch.data(), n0, dir);
    transpose_blocked(scratch.data(), data, n1, n0);
  }
};

template <typename T>
Plan2D<T>::Plan2D(index_t n0, index_t n1) : impl_(std::make_unique<Impl>(n0, n1)) {}
template <typename T>
Plan2D<T>::~Plan2D() = default;
template <typename T>
Plan2D<T>::Plan2D(Plan2D&&) noexcept = default;
template <typename T>
Plan2D<T>& Plan2D<T>::operator=(Plan2D&&) noexcept = default;

template <typename T>
index_t Plan2D<T>::size0() const {
  return impl_->n0;
}
template <typename T>
index_t Plan2D<T>::size1() const {
  return impl_->n1;
}
template <typename T>
void Plan2D<T>::execute(Cx<T>* data, Direction dir) const {
  impl_->run(data, dir);
}

// ---------------------------------------------------------------------------

template <typename T>
void fft(Cx<T>* data, index_t n, Direction dir) {
  cached_plan1d<T>(n)->execute(data, dir);
}

template <typename T>
void fft2d(Cx<T>* data, index_t n0, index_t n1, Direction dir) {
  // Plan2D's own 1D plans come from the cache; only the (cheap) 2D shell
  // is rebuilt per call.
  Plan2D<T>(n0, n1).execute(data, dir);
}

template <typename T>
void normalize(Cx<T>* data, index_t n, index_t transform_size) {
  const T s = T(1) / T(transform_size);
  for (index_t i = 0; i < n; ++i) data[i] *= s;
}

#define FMMFFT_INSTANTIATE_FFT(T)                                                   \
  template void dft_reference<T>(const Cx<T>*, Cx<T>*, index_t, Direction);          \
  template class Plan1D<T>;                                                          \
  template class Plan2D<T>;                                                          \
  template std::shared_ptr<const Plan1D<T>> cached_plan1d<T>(index_t);               \
  template void fft<T>(Cx<T>*, index_t, Direction);                                  \
  template void fft2d<T>(Cx<T>*, index_t, index_t, Direction);                       \
  template void normalize<T>(Cx<T>*, index_t, index_t);                            \
  template void detail::pow2_line<T>(Cx<T>*, index_t, index_t, Direction);

FMMFFT_INSTANTIATE_FFT(float)
FMMFFT_INSTANTIATE_FFT(double)

}  // namespace fmmfft::fft
