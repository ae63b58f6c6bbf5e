// Decomposition resolution for the distributed 3D FFT: fold together the
// caller's constructor request, the FMMFFT_DECOMP / FMMFFT_GRID environment
// knobs, and (when everything still says "auto") the model::choose_decomp
// cost comparison. Lives in dist/ rather than model/ because the env
// registry and the decomp.auto.* decision metrics are obs:: facilities the
// model layer deliberately does not link.
#pragma once

#include "common/types.hpp"
#include "dist/procgrid.hpp"
#include "model/tuning.hpp"

namespace fmmfft::dist {

struct DecompChoice {
  model::Decomp decomp = model::Decomp::Slab;  ///< never Auto
  ProcGrid grid;                               ///< valid iff decomp == Pencil
  model::DecompDecision decision;              ///< the underlying model verdict
};

/// Resolve the decomposition of a distributed n0×n1×n2 3D transform on g
/// devices. Precedence: explicit `requested` argument > FMMFFT_DECOMP > cost
/// model. A grid passed as `requested_grid` beats FMMFFT_GRID. When the
/// model decides (everything "auto") and metrics are enabled, records the
/// decomp.auto.* gauges (pencil 0/1, pr, pc, modeled slab/pencil seconds).
DecompChoice resolve_decomp_3d(int g, index_t n0, index_t n1, index_t n2,
                               model::Decomp requested = model::Decomp::Auto,
                               model::GridShape requested_grid = {});

}  // namespace fmmfft::dist
