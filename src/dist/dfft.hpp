// Distributed FFTs over the simulated multi-device fabric.
//
//  * DistFft1d — the industry-standard baseline the paper measures against
//    (the cuFFTXT stand-in): radix-P split with THREE all-to-all
//    transposes (§3):
//      Π_{M,P} · (I_M⊗F_P) · Π_{P,M} · T_{P,M} · (I_P⊗F_M) · Π_{M,P}
//  * Dist2dFft — the M×P 2D FFT used as the second stage of the FMM-FFT
//    (and as Fig. 3's "2D cuFFTXT" budget bar): ONE all-to-all.
//
// Data is host-staged: execute() takes the full input/output arrays and
// scatters/gathers to per-device slabs internally; slab residency and all
// inter-device traffic go through the fabric ledger.
#pragma once

#include <algorithm>
#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/threadpool.hpp"
#include "common/types.hpp"
#include "dist/decomp.hpp"
#include "dist/procgrid.hpp"
#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"
#include "sim/fabric.hpp"

namespace fmmfft::dist {

namespace detail {

/// Forward FFTs of `lines` contiguous lines at `data`. Outside a pool chunk
/// (an inline graph drain) the lines split across the pool in stripes of
/// ≥ 2^12 elements; inside one (a pooled drain) they run in place. Lines
/// are independent, so the split cannot change bits. The launch books its
/// wall time in the ledger's `fft` scope once; the per-chunk plan calls
/// book none.
template <typename T>
void forward_lines(const fft::Plan1D<T>& plan, std::complex<T>* data, index_t lines) {
  const index_t n = plan.size();
  FMMFFT_TRAFFIC_SECONDS("fft");
  parallel_for(
      lines,
      [&](index_t lo, index_t hi) {
        plan.execute_batched(data + lo * n, hi - lo, fft::Direction::Forward);
      },
      /*grain=*/std::max<index_t>(1, (index_t(1) << 12) / n));
}

/// Submit `units` consecutive blocks of `unit_lines` independent FFT lines
/// (contiguous, stride plan.size(), starting at `data`) as at most `nc`
/// unordered chunk tasks on device `dev`'s compute lane, each waiting on
/// `deps`. Tasks are labelled "<name> d<dev> c<chunk>", tagged stage "fft"
/// and traced under `span`. Lines are independent, so chunk order cannot
/// change bits. Returns the chunk tasks in chunk order.
template <typename T>
std::vector<exec::TaskId> submit_line_ffts(exec::TaskGraph& graph,
                                           const exec::DeviceLanes& lanes, int dev,
                                           const std::string& name, const char* span,
                                           const fft::Plan1D<T>& plan, std::complex<T>* data,
                                           index_t units, index_t unit_lines, index_t nc,
                                           const std::vector<exec::TaskId>& deps) {
  const index_t step = (units + nc - 1) / nc;
  std::vector<exec::TaskId> ids;
  for (index_t c = 0; c < nc; ++c) {
    const index_t lo = c * step, hi = std::min(units, lo + step);
    if (lo >= hi) break;
    std::complex<T>* base = data + lo * unit_lines * plan.size();
    const index_t lines = (hi - lo) * unit_lines;
    ids.push_back(graph.submit(
        name + " d" + std::to_string(dev) + " c" + std::to_string(c),
        {lanes.compute(dev), /*ordered=*/false, "fft"},
        [&plan, span, base, lines] {
          FMMFFT_SPAN(span);
          forward_lines(plan, base, lines);
        },
        deps));
  }
  return ids;
}

}  // namespace detail

/// Baseline in-order distributed 1D FFT with three all-to-all transposes.
template <typename T>
class DistFft1d {
 public:
  /// n must be a power of two; factors are chosen balanced (M ≈ P ≈ √N).
  /// g devices must divide both factors.
  DistFft1d(index_t n, int g);

  index_t size() const { return n_; }
  index_t factor_m() const { return m_; }
  index_t factor_p() const { return p_; }

  void execute(const std::complex<T>* in, std::complex<T>* out);

  const sim::Fabric& fabric() const { return fabric_; }
  sim::Fabric& fabric() { return fabric_; }

 private:
  index_t n_, m_, p_;
  int g_;
  sim::Fabric fabric_;
  fft::Plan1D<T> plan_m_, plan_p_;
  std::vector<Buffer<std::complex<T>>> slab_a_, slab_b_;
  Buffer<std::complex<T>> twiddle_;  // per-slab twiddle factors, slab-major
};

/// Distributed M×P 2D FFT in the FMM-FFT's p-major layout: input element
/// (p, m) at position p + m·P, block partitioned over m; output in order.
///
/// The single Π_{M,P} exchange runs in either decomposition: slab (the
/// one-phase G-wide all-to-all, tag A2A-2D) or pencil (the factorized
/// two-phase form over a pr×pc grid — row phase A2A-ROW, column phase
/// A2A-COL — each confined to a √G-ish sub-communicator). Both move the
/// same element values with pure copies, so results are bit-identical.
template <typename T>
class Dist2dFft {
 public:
  /// `decomp`/`grid` default to the environment / cost-model resolution
  /// (dist::resolve_decomp_2d: ctor argument > FMMFFT_DECOMP > model).
  Dist2dFft(index_t m, index_t p, int g, model::Decomp decomp = model::Decomp::Auto,
            model::GridShape grid = {});

  void execute(const std::complex<T>* in, std::complex<T>* out);

  /// Variant over externally owned per-device slabs of N/G elements, in
  /// place unless `outs` names per-device result slabs (see submit_slabs).
  /// Submits the transform as one exec::TaskGraph and drains it as
  /// exec::resolve_mode picks on the per-device slab size: inline (Serial)
  /// or on the pool (Async), bit-identical either way.
  void execute_slabs(const std::vector<std::complex<T>*>& slabs, sim::Fabric& fabric,
                     const std::vector<std::complex<T>*>& outs = {});

  /// The transform's one description: submit the whole 2D FFT as tasks on
  /// `graph` (the distributed FMM-FFT appends it to its own graph) —
  /// per-device row-FFT chunks, per-(pair, chunk) fused pack + copy-record
  /// tasks for the exchange (one phase for slab, row then column phase for
  /// pencil), then column-FFT chunks — so copies overlap neighbouring FFT
  /// chunks exactly as dist::fft_schedule models.
  /// `ready[r]` (optional) gates device r's first task. Device r's result
  /// is written back into `outs[r]` (default: in place, into `slabs[r]`);
  /// returns the per-device terminal task (the write-back).
  std::vector<exec::TaskId> submit_slabs(exec::TaskGraph& graph,
                                         const exec::DeviceLanes& lanes,
                                         const std::vector<std::complex<T>*>& slabs,
                                         sim::Fabric& fabric,
                                         const std::vector<exec::TaskId>& ready = {},
                                         const std::vector<std::complex<T>*>& outs = {});

  const sim::Fabric& fabric() const { return fabric_; }
  model::Decomp decomp() const { return decomp_; }
  const ProcGrid& grid() const { return grid_; }
  const model::DecompDecision& decision() const { return decision_; }

 private:
  /// Task ids threaded through submit_slabs: the row-FFT chunks that feed
  /// the exchange (per device, in chunk order), and what the exchange
  /// submits per device — the copies writing its scratch slab (`arrived`)
  /// and the packs still reading its input slab (`readers`, the
  /// write-back's WAR gate).
  struct Exchange {
    std::vector<std::vector<exec::TaskId>> fftp, arrived, readers;
  };
  void submit_slab_exchange(exec::TaskGraph& graph, const exec::DeviceLanes& lanes,
                            const std::vector<std::complex<T>*>& slabs, sim::Fabric& fabric,
                            index_t nc, Exchange& x);
  void submit_pencil_exchange(exec::TaskGraph& graph, const exec::DeviceLanes& lanes,
                              const std::vector<std::complex<T>*>& slabs, sim::Fabric& fabric,
                              index_t nc, Exchange& x);

  index_t m_, p_;
  int g_;
  model::Decomp decomp_ = model::Decomp::Slab;
  ProcGrid grid_;
  model::DecompDecision decision_;
  sim::Fabric fabric_;
  fft::Plan1D<T> plan_m_, plan_p_;
  std::vector<Buffer<std::complex<T>>> scratch_;
  std::vector<Buffer<std::complex<T>>> work_;  ///< pencil intermediate (N/G each)
};

}  // namespace fmmfft::dist
