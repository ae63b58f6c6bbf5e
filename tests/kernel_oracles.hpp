// Test-only oracles for the FMM engine's custom kernels and the blocked GEMM.
//
// Each FMM oracle recomputes a stage from the engine's public tensor accessors
// and operator builders with plain scalar loops. It keeps the production
// kernel's per-element accumulation order, so a correct fast kernel matches
// it bit for bit (the tests memcmp). Compile the including target with FP
// contraction off, or a fused multiply-add could merge the oracle's
// separate multiply and add.
#pragma once

#include <vector>

#include "blas/blas.hpp"
#include "common/math.hpp"
#include "fmm/engine.hpp"
#include "fmm/operators.hpp"

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
