// Test-only oracles for the FMM engine's custom kernels, the blocked GEMM and
// the lane-parallel Stockham and four-step FFT.
//
// Each FMM oracle recomputes a stage from the engine's public tensor accessors
// and operator builders with plain scalar loops. It keeps the production
// kernel's per-element accumulation order, so a correct fast kernel matches
// it bit for bit (the tests memcmp). Compile the including target with FP
// contraction off, or a fused multiply-add could merge the oracle's
// separate multiply and add.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <functional>
#include <memory>
#include <vector>

#include "blas/blas.hpp"
#include "common/math.hpp"
#include "fmm/engine.hpp"
#include "fmm/operators.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::blas {

/// Naive triple-loop GEMM, C := alpha·op(A)·op(B) + beta·C column-major, the
/// reference the blocked microkernel paths are validated against (to a
/// tolerance: the blocked kernels sum k in a different order).
template <typename T>
void gemm_reference(Op transa, Op transb, index_t m, index_t n, index_t k, T alpha, const T* a,
                    index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc) {
  const auto at = [](const T* x, index_t ld, Op t, index_t i, index_t j) {
    return t == Op::N ? x[i + j * ld] : x[j + i * ld];
  };
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      T s = 0;
      for (index_t l = 0; l < k; ++l) s += at(a, lda, transa, i, l) * at(b, ldb, transb, l, j);
      c[i + j * ldc] = alpha * s + beta * c[i + j * ldc];
    }
}

}  // namespace fmmfft::blas

namespace fmmfft::fmm {

/// Scalar S2T: T_pib += S2T_{p(j-i)} S_pjb for every local leaf box b,
/// target row i in [0, M_L), and source row j in [-M_L, 2·M_L) of the
/// three-box neighbourhood, j ascending per element. The Toeplitz table is
/// rebuilt from fmm::s2t_table and cast to the working precision, as the
/// engine does.
template <typename T>
void s2t_oracle(Engine<T>& eng) {
  const index_t ml = eng.params().ml, cp = eng.cp();
  const std::vector<double> tab64 = s2t_table(eng.params(), eng.components());
  const std::vector<T> tab(tab64.begin(), tab64.end());
  for (index_t b = 0; b < eng.local_leaves(); ++b) {
    const T* sb = eng.source_box(b);
    T* tb = eng.target_box(b);
    for (index_t i = 0; i < ml; ++i)
      for (index_t j = -ml; j < 2 * ml; ++j) {
        const T* row = tab.data() + (j - i + 2 * ml - 1) * cp;
        for (index_t pc = 0; pc < cp; ++pc) tb[cp * i + pc] += row[pc] * sb[cp * j + pc];
      }
  }
}

/// Separations the M2L applies at `level`: 2..2^B-2 ascending at the base
/// level B, else fmm::level_separations (each box uses the three that
/// match its parity).
template <typename T>
std::vector<index_t> m2l_oracle_separations(const Engine<T>& eng, int level) {
  if (level != eng.params().b) return level_separations();
  std::vector<index_t> seps;
  for (index_t s = 2; s <= eng.params().boxes(level) - 2; ++s) seps.push_back(s);
  return seps;
}

/// The operator table of every separation in m2l_oracle_separations order,
/// built by fmm::m2l_table and cast to the working precision as the engine
/// does. Build once outside a timed loop.
template <typename T>
std::vector<std::vector<T>> m2l_oracle_tables(const Engine<T>& eng, int level) {
  std::vector<std::vector<T>> tabs;
  for (index_t s : m2l_oracle_separations(eng, level)) {
    const std::vector<double> tab64 = m2l_table(eng.params(), level, s, eng.components());
    tabs.emplace_back(tab64.begin(), tab64.end());
  }
  return tabs;
}

/// Scalar M2L at `level` in [B, L]: one pass per separation, in order,
/// L_{pc,i,b} += Σ_j M2L^s_{pc,i,j} M_{pc,j,b+s} with j ascending, so each
/// L element accumulates separation-major, j-minor — the order of the fused
/// m2l_level / m2l_base sweeps. The base level reads the global gathered
/// multipoles cyclically; other levels read the local buffer, halo
/// included.
template <typename T>
void m2l_oracle(Engine<T>& eng, int level, const std::vector<std::vector<T>>& tabs) {
  const bool base = level == eng.params().b;
  const index_t q = eng.params().q, cpm = eng.cpm();
  const index_t nbl = eng.local_boxes(level), off = eng.box_offset(level);
  const index_t nb_global = eng.params().boxes(level);
  const std::vector<index_t> seps = m2l_oracle_separations(eng, level);
  for (std::size_t k = 0; k < seps.size(); ++k) {
    const index_t s = seps[k];
    const T* tab = tabs[k].data();
    for (index_t b = 0; b < nbl; ++b) {
      const index_t gb = off + b;
      if (!base && !separation_applies(s, gb % 2 != 0)) continue;
      const T* m = base ? eng.multipole_box(level, mod(gb + s, nb_global))
                        : eng.multipole_box(level, b + s);
      T* l = eng.local_box(level, b);
      for (index_t i = 0; i < q; ++i)
        for (index_t j = 0; j < q; ++j)
          for (index_t pc = 0; pc < cpm; ++pc)
            l[cpm * i + pc] += tab[(i + q * j) * cpm + pc] * m[cpm * j + pc];
    }
  }
}

template <typename T>
void m2l_oracle(Engine<T>& eng, int level) {
  m2l_oracle(eng, level, m2l_oracle_tables(eng, level));
}

}  // namespace fmmfft::fmm

namespace fmmfft::fft {

namespace oracle_detail {

/// Whether the kernels fuse a twiddle product (see fft.cpp's cmul).
#if defined(FP_FAST_FMA) && defined(FP_FAST_FMAF)
inline constexpr bool kFmaHost = true;
#else
inline constexpr bool kFmaHost = false;
#endif

/// A product that must round alone: the empty asm hides it from
/// contraction and from the vectorizer's complex-multiply pattern, which
/// fuses one product even under -ffp-contract=off.
template <typename T>
T alone(T v) {
#if defined(__x86_64__)
  asm("" : "+x"(v));
#else
  asm("" : "+m"(v));
#endif
  return v;
}

/// x·w, with the first product of each part fused when `fuse`:
/// re = fma(x.re, w.re, −x.im·w.im), im = fma(x.re, w.im, x.im·w.re).
template <typename T>
std::complex<T> cmul(std::complex<T> x, std::complex<T> w, bool fuse) {
  if (fuse)
    return {std::fma(x.real(), w.real(), -(x.imag() * w.imag())),
            std::fma(x.real(), w.imag(), x.imag() * w.real())};
  return {alone(x.real() * w.real()) - alone(x.imag() * w.imag()),
          alone(x.real() * w.imag()) + alone(x.imag() * w.real())};
}

}  // namespace oracle_detail

/// The one-line pow2 Stockham transform the lane kernel replaced, in place:
/// radix-4 stages (one radix-2 stage first when log2 n is odd) ping-pong
/// between data and scratch, with a copy back after an odd stage count.
/// Its twiddle multiplies x·w round as that kernel did when compiled with
/// contraction on an FMA host — re = fma(x.re, w.re, −x.im·w.im) and
/// im = fma(x.re, w.im, x.im·w.re) — except in the inverse radix-2 stage,
/// which (like every stage without FP_FAST_FMA) rounds each product alone.
/// Construct once per size (the twiddle tables), apply to any line.
template <typename T>
class StockhamOracle {
 public:
  using Cx = std::complex<T>;

  explicit StockhamOracle(index_t n) : n_(n) {
    // One table per stage, exp(−2πi·p/len) for p < len at that stage's length.
    const auto add = [&](index_t len) {
      const long double theta = 2.0L * pi_v<long double> / (long double)len;
      std::vector<Cx> w(static_cast<std::size_t>(len));
      for (index_t p = 0; p < len; ++p)
        w[(std::size_t)p] =
            Cx((T)std::cos((long double)p * theta), (T)-std::sin((long double)p * theta));
      tables_.push_back(std::move(w));
    };
    index_t len = n;
    if (ilog2_exact(n) % 2 == 1) add(len), len /= 2;
    for (; len >= 4; len /= 4) add(len);
  }

  void operator()(Cx* data, bool inverse) const {
    using oracle_detail::cmul;
    constexpr bool fma_host = oracle_detail::kFmaHost;
    std::vector<Cx> scratch(static_cast<std::size_t>(n_));
    Cx* src = data;
    Cx* dst = scratch.data();
    index_t s = 1;
    for (const std::vector<Cx>& table : tables_) {
      const auto tw = [&](index_t p) { return inverse ? std::conj(table[p]) : table[p]; };
      const index_t len = index_t(table.size());
      if (s == 1 && ilog2_exact(n_) % 2 == 1) {
        const index_t m = len / 2;
        for (index_t p = 0; p < m; ++p) {
          const Cx wp = tw(p);
          for (index_t q = 0; q < s; ++q) {
            const Cx a = src[s * p + q], b = src[s * (p + m) + q];
            dst[s * (2 * p) + q] = a + b;
            dst[s * (2 * p + 1) + q] = cmul(a - b, wp, fma_host && !inverse);
          }
        }
        s *= 2;
      } else {
        const index_t m = len / 4;
        for (index_t p = 0; p < m; ++p) {
          const Cx w1 = tw(p), w2 = tw(2 * p), w3 = tw(3 * p);
          for (index_t q = 0; q < s; ++q) {
            const Cx a = src[s * p + q], b = src[s * (p + m) + q];
            const Cx c = src[s * (p + 2 * m) + q], d = src[s * (p + 3 * m) + q];
            const Cx t0 = a + c, t1 = a - c, t2 = b + d, bd = b - d;
            const Cx t3 = inverse ? Cx(-bd.imag(), bd.real()) : Cx(bd.imag(), -bd.real());
            dst[s * (4 * p) + q] = t0 + t2;
            dst[s * (4 * p + 1) + q] = cmul(t1 + t3, w1, fma_host);
            dst[s * (4 * p + 2) + q] = cmul(t0 - t2, w2, fma_host);
            dst[s * (4 * p + 3) + q] = cmul(t1 - t3, w3, fma_host);
          }
        }
        s *= 4;
      }
      std::swap(src, dst);
    }
    if (src != data) std::copy_n(src, n_, data);
  }

 private:
  index_t n_;
  std::vector<std::vector<Cx>> tables_;  ///< one per stage, in stage order
};

/// The four-step composition Plan1D runs for pow2 n above the Stockham
/// limit (obs::kStockhamMaxLog2), one scalar line at a time: n = n1·n2 split
/// by obs::four_step_log2_n1; StockhamOracle(n1) on every column j2 of
/// data[j1·n2 + j2]; each result k1 times exp(−2πi·j2·k1/n) (conjugated for
/// the inverse) from one long-double table, fused as the kernels' twiddles
/// are; then the row transform of length n2 (recursing past the limit) on
/// every row k1, stored at data[k1 + n1·k2]. `max_log2` is the Stockham
/// limit, as in fft::detail::pow2_line.
template <typename T>
std::function<void(std::complex<T>*, bool)> pow2_oracle(index_t n,
                                                        index_t max_log2 = obs::kStockhamMaxLog2);

template <typename T>
class FourStepOracle {
 public:
  using Cx = std::complex<T>;

  explicit FourStepOracle(index_t n, index_t max_log2 = obs::kStockhamMaxLog2)
      : n1_(index_t(1) << obs::four_step_log2_n1(ilog2_exact(n), max_log2)),
        n2_(n / n1_),
        cols_(n1_),
        rows_(pow2_oracle<T>(n2_, max_log2)) {
    const long double theta = 2.0L * pi_v<long double> / (long double)n;
    w_.resize(static_cast<std::size_t>(n));
    for (index_t k1 = 0; k1 < n1_; ++k1)
      for (index_t j2 = 0; j2 < n2_; ++j2) {
        const long double a = (long double)(j2 * k1) * theta;
        w_[(std::size_t)(k1 * n2_ + j2)] = Cx((T)std::cos(a), (T)-std::sin(a));
      }
  }

  void operator()(Cx* data, bool inverse) const {
    std::vector<Cx> col(static_cast<std::size_t>(n1_)), mid(w_.size());
    for (index_t j2 = 0; j2 < n2_; ++j2) {
      for (index_t j1 = 0; j1 < n1_; ++j1) col[(std::size_t)j1] = data[j1 * n2_ + j2];
      cols_(col.data(), inverse);
      for (index_t k1 = 0; k1 < n1_; ++k1) {
        const Cx w = w_[(std::size_t)(k1 * n2_ + j2)];
        mid[(std::size_t)(k1 * n2_ + j2)] = oracle_detail::cmul(
            col[(std::size_t)k1], inverse ? std::conj(w) : w, oracle_detail::kFmaHost);
      }
    }
    for (index_t k1 = 0; k1 < n1_; ++k1) rows_(mid.data() + k1 * n2_, inverse);
    for (index_t k1 = 0; k1 < n1_; ++k1)
      for (index_t k2 = 0; k2 < n2_; ++k2) data[k1 + n1_ * k2] = mid[(std::size_t)(k1 * n2_ + k2)];
  }

 private:
  index_t n1_, n2_;
  StockhamOracle<T> cols_;
  std::function<void(Cx*, bool)> rows_;
  std::vector<Cx> w_;  ///< w_[k1·n2 + j2] = exp(−2πi·j2·k1/n)
};

/// The oracle of Plan1D's pow2 transform of any size: Stockham up to the
/// limit, four-step above it.
template <typename T>
std::function<void(std::complex<T>*, bool)> pow2_oracle(index_t n, index_t max_log2) {
  if (ilog2_exact(n) <= max_log2)
    return [o = StockhamOracle<T>(n)](std::complex<T>* x, bool inv) { o(x, inv); };
  return [o = std::make_shared<FourStepOracle<T>>(n, max_log2)](std::complex<T>* x, bool inv) {
    (*o)(x, inv);
  };
}

}  // namespace fmmfft::fft
