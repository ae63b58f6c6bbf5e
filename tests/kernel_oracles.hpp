// Test-only oracles for the FMM engine's custom kernels.
//
// Each oracle recomputes a stage from the engine's public tensor accessors
// and operator builders with plain scalar loops. It keeps the production
// kernel's per-element accumulation order, so a correct fast kernel matches
// it bit for bit (the tests memcmp). Compile the including target with FP
// contraction off, or a fused multiply-add could merge the oracle's
// separate multiply and add.
#pragma once

#include <vector>

#include "fmm/engine.hpp"
#include "fmm/operators.hpp"

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

}  // namespace fmmfft::fmm
