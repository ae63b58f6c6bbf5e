#include "dist/dfft.hpp"

#include <cstring>
#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "dist/collectives.hpp"
#include "obs/obs.hpp"

namespace fmmfft::dist {
namespace {

template <typename T>
std::vector<std::complex<T>*> ptrs(std::vector<Buffer<std::complex<T>>>& slabs) {
  std::vector<std::complex<T>*> p;
  p.reserve(slabs.size());
  for (auto& s : slabs) p.push_back(s.data());
  return p;
}

}  // namespace

template <typename T>
DistFft1d<T>::DistFft1d(index_t n, int g)
    : n_(n),
      m_(index_t(1) << ((ilog2_exact(n) + 1) / 2)),
      p_(n / m_),
      g_(g),
      fabric_(g),
      plan_m_(m_),
      plan_p_(p_),
      twiddle_(n) {
  FMMFFT_CHECK_MSG(is_pow2(n) && n >= 4, "N must be a power of two >= 4");
  FMMFFT_CHECK_MSG(g >= 1 && m_ % g == 0 && p_ % g == 0,
                   "G must divide both FFT factors (N=" << n << ", G=" << g << ")");
  const index_t slab = n_ / g_;
  for (int r = 0; r < g_; ++r) {
    slab_a_.emplace_back(slab);
    slab_b_.emplace_back(slab);
  }
  // Twiddle diag [T_{P,M}]_ii = w_N^{(i mod M) * floor(i / M)}.
  for (index_t i = 0; i < n_; ++i) {
    const long double ang = -2.0L * pi_v<long double> *
                            (long double)((__int128)(i % m_) * (i / m_) % n_) / (long double)n_;
    twiddle_[i] = std::complex<T>((T)std::cos(ang), (T)std::sin(ang));
  }
}

template <typename T>
void DistFft1d<T>::execute(const std::complex<T>* in, std::complex<T>* out) {
  using Cx = std::complex<T>;
  const index_t slab = n_ / g_;
  auto a = ptrs(slab_a_);
  auto b = ptrs(slab_b_);

  // Device-resident input: scatter is a local placement, not traffic.
  for (int r = 0; r < g_; ++r) std::memcpy(a[(std::size_t)r], in + r * slab, sizeof(Cx) * slab);

  // (1) Transpose P-major -> M-major (all-to-all #1).
  all_to_all_permute_mp(fabric_, a, b, m_, p_, "A2A-1");
  // (2) P local FFTs of size M (P/G per device, contiguous blocks).
  {
    FMMFFT_SPAN("DFFT-M");
    for (int r = 0; r < g_; ++r)
      plan_m_.execute_batched(b[(std::size_t)r], p_ / g_, fft::Direction::Forward);
  }
  // (3) Twiddle scale.
  {
    FMMFFT_SPAN("DFFT-TW");
    for (int r = 0; r < g_; ++r)
      for (index_t i = 0; i < slab; ++i) b[(std::size_t)r][i] *= twiddle_[r * slab + i];
  }
  // (4) Transpose M-major -> P-major (all-to-all #2).
  all_to_all_permute_mp(fabric_, b, a, p_, m_, "A2A-2");
  // (5) M local FFTs of size P.
  {
    FMMFFT_SPAN("DFFT-P");
    for (int r = 0; r < g_; ++r)
      plan_p_.execute_batched(a[(std::size_t)r], m_ / g_, fft::Direction::Forward);
  }
  // (6) Transpose P-major -> M-major (all-to-all #3): in-order output.
  all_to_all_permute_mp(fabric_, a, b, m_, p_, "A2A-3");

  for (int r = 0; r < g_; ++r) std::memcpy(out + r * slab, b[(std::size_t)r], sizeof(Cx) * slab);
}

template <typename T>
Dist2dFft<T>::Dist2dFft(index_t m, index_t p, int g, model::Decomp decomp,
                        model::GridShape grid)
    : m_(m), p_(p), g_(g), fabric_(g), plan_m_(m), plan_p_(p) {
  FMMFFT_CHECK_MSG(m % g == 0 && p % g == 0, "G must divide both 2D FFT dimensions");
  const DecompChoice choice = resolve_decomp_2d(g, m, p, decomp, grid);
  decomp_ = choice.decomp;
  grid_ = choice.grid;
  decision_ = choice.decision;
  for (int r = 0; r < g_; ++r) scratch_.emplace_back(m_ * p_ / g_);
  if (decomp_ == model::Decomp::Pencil)
    for (int r = 0; r < g_; ++r) work_.emplace_back(m_ * p_ / g_);
}

template <typename T>
void Dist2dFft<T>::execute_slabs(const std::vector<std::complex<T>*>& slabs,
                                 sim::Fabric& fabric,
                                 const std::vector<std::complex<T>*>& outs) {
  exec::DeviceLanes lanes(g_);
  exec::TaskGraph graph(lanes.count());
  graph.name_lanes(lanes);
  submit_slabs(graph, lanes, slabs, fabric, {}, outs);
  // The per-device slab of the m×p grid decides Auto, as in DistFmmFft.
  graph.run(exec::resolve_mode(m_ * p_ / g_));
}

template <typename T>
std::vector<exec::TaskId> Dist2dFft<T>::submit_slabs(exec::TaskGraph& graph,
                                                     const exec::DeviceLanes& lanes,
                                                     const std::vector<std::complex<T>*>& slabs,
                                                     sim::Fabric& fabric,
                                                     const std::vector<exec::TaskId>& ready,
                                                     const std::vector<std::complex<T>*>& outs) {
  using Cx = std::complex<T>;
  FMMFFT_CHECK((index_t)slabs.size() == g_);
  FMMFFT_CHECK(ready.empty() || (int)ready.size() == g_);
  FMMFFT_CHECK(outs.empty() || (int)outs.size() == g_);
  const index_t mg = m_ / g_, pg = p_ / g_, slab = m_ * p_ / g_;
  // Same chunk granularity the simulated schedule pipelines with
  // (schedules.cpp chunk_count): enough chunks that a copy can start while
  // the remaining row FFTs still run, floored by the rows themselves.
  const index_t nc = std::min<index_t>(std::max<index_t>(2, g_), mg);
  auto sc = ptrs(scratch_);

  // (a) Row FFTs, one task per chunk of contiguous p-major rows.
  Exchange x;
  x.fftp.resize((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    std::vector<exec::TaskId> deps;
    if (!ready.empty()) deps.push_back(ready[(std::size_t)r]);
    x.fftp[(std::size_t)r] = detail::submit_line_ffts(
        graph, lanes, r, "fftp", "2DFFT-P", plan_p_, slabs[(std::size_t)r], mg, 1, nc, deps);
  }

  // (b) The Π_{M,P} all-to-all into the scratch slabs.
  x.arrived.resize((std::size_t)g_);
  x.readers.resize((std::size_t)g_);
  const bool pencil = decomp_ == model::Decomp::Pencil;
  if (pencil)
    submit_pencil_exchange(graph, lanes, slabs, fabric, nc, x);
  else
    submit_slab_exchange(graph, lanes, slabs, fabric, nc, x);

  // (c) Column FFTs per device once every fragment of its scratch slab has
  // arrived (join meta-task), then the write-back into `outs[r]` or the
  // slab — which must also wait for every pack that still reads this
  // device's slab (WAR hazard).
  std::vector<exec::TaskId> terminal((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    const exec::TaskId join =
        graph.submit((pencil ? "col-join d" : "a2a-join d") + std::to_string(r),
                     {lanes.compute(r), /*ordered=*/false, "sync"}, [] {},
                     x.arrived[(std::size_t)r]);
    std::vector<exec::TaskId> deps = detail::submit_line_ffts(
        graph, lanes, r, "fftm", "2DFFT-M", plan_m_, sc[(std::size_t)r], pg, 1, nc, {join});
    deps.insert(deps.end(), x.readers[(std::size_t)r].begin(), x.readers[(std::size_t)r].end());
    Cx* dst = (outs.empty() ? slabs : outs)[(std::size_t)r];
    const Cx* src = sc[(std::size_t)r];
    terminal[(std::size_t)r] = graph.submit(
        "writeback d" + std::to_string(r), {lanes.compute(r), /*ordered=*/true, "fft"},
        [dst, src, slab] { std::memcpy(dst, src, sizeof(Cx) * (std::size_t)slab); },
        std::move(deps));
  }
  return terminal;
}

template <typename T>
void Dist2dFft<T>::submit_slab_exchange(exec::TaskGraph& graph, const exec::DeviceLanes& lanes,
                                        const std::vector<std::complex<T>*>& slabs,
                                        sim::Fabric& fabric, index_t nc, Exchange& x) {
  // The single all-to-all, chunk-pipelined and fused: for every (src, dst)
  // pair and row chunk, one strided gather-scatter on src's compute lane
  // writes the chunk straight into dst's scratch slab (the simulator's
  // one-address-space twin of peer-to-peer strided writes) — no staging
  // buffers, no memmove. The pair's link lane carries a record task
  // accounting the payload, so lane structure and fabric bytes match a
  // staged path. A chunk's pack waits only on the row FFTs that produced
  // its rows; chunks write disjoint dst regions, so they overlap freely.
  using Cx = std::complex<T>;
  const index_t mg = m_ / g_, pg = p_ / g_;
  const index_t step = (mg + nc - 1) / nc;
  auto sc = ptrs(scratch_);
  for (int r = 0; r < g_; ++r) {
    for (int rr = 0; rr < g_; ++rr) {
      for (index_t c = 0; c < nc; ++c) {
        const index_t lo = c * step, hi = std::min(mg, lo + step);
        if (lo >= hi) break;
        const index_t cnt = (hi - lo) * pg;
        const Cx* in = slabs[(std::size_t)r];
        Cx* out = sc[(std::size_t)rr];
        const std::string sfx = " " + std::to_string(r) + "->" + std::to_string(rr) + " c" +
                                std::to_string(c);
        const exec::TaskId pack = graph.submit(
            "pack" + sfx, {lanes.compute(r), /*ordered=*/false, "a2a"},
            [this, in, out, lo, hi, r, rr, mg, pg] {
              detail::a2a_pair_fused(in, out, r, rr, m_, p_, mg, pg, lo, hi);
            },
            {x.fftp[(std::size_t)r][(std::size_t)c]});
        const exec::TaskId copy = graph.submit(
            "copy" + sfx, {lanes.copy(r, rr), /*ordered=*/true, "a2a"},
            [&fabric, r, rr, cnt] {
              fabric.record(r, rr, double(cnt) * sizeof(Cx), "A2A-2D",
                            sizeof(real_of_t<Cx>) == 4);
            },
            {pack});
        x.readers[(std::size_t)r].push_back(pack);
        x.arrived[(std::size_t)rr].push_back(copy);
      }
    }
  }
}

template <typename T>
void Dist2dFft<T>::submit_pencil_exchange(exec::TaskGraph& graph,
                                          const exec::DeviceLanes& lanes,
                                          const std::vector<std::complex<T>*>& slabs,
                                          sim::Fabric& fabric, index_t nc, Exchange& x) {
  using Cx = std::complex<T>;
  const int pr = grid_.pr, pc = grid_.pc;
  const index_t mg = m_ / g_, pg = p_ / g_;
  const index_t block = pg * mg;
  const index_t step = (mg + nc - 1) / nc;
  const bool f32 = sizeof(T) == 4;
  auto sc = ptrs(scratch_);
  auto wk = ptrs(work_);

  // Row phase: sender s = (i,j) ships the chunks destined for grid column
  // jj to the intermediate t = (i,jj), same orientation (pure row copies
  // into t's work buffer). A chunk waits only on the row FFT that produced
  // its rows.
  std::vector<std::vector<exec::TaskId>> arrived_row((std::size_t)g_);
  for (int s = 0; s < g_; ++s) {
    const int i = grid_.row_of(s), j = grid_.col_of(s);
    for (int jj = 0; jj < pc; ++jj) {
      const int t = grid_.device(i, jj);
      for (index_t c = 0; c < nc; ++c) {
        const index_t lo = c * step, hi = std::min(mg, lo + step);
        if (lo >= hi) break;
        const Cx* in = slabs[(std::size_t)s] + index_t(jj) * pg + lo * p_;
        Cx* out = wk[(std::size_t)t] + index_t(j) * pr * block + lo * pg;
        const index_t rows = hi - lo;
        const std::string sfx =
            " " + std::to_string(s) + "->" + std::to_string(t) + " c" + std::to_string(c);
        const exec::TaskId pack = graph.submit(
            "row-pack" + sfx, {lanes.compute(s), /*ordered=*/false, "a2a"},
            [this, in, out, rows, pg, pc, pr, block] {
              detail::a2a_pair_copy_strided(in, out, /*row_elems=*/pg, /*rows=*/rows,
                                            /*in_ld=*/p_, /*out_ld=*/pg,
                                            /*batch=*/index_t(pr),
                                            /*in_bstride=*/index_t(pc) * pg,
                                            /*out_bstride=*/block, detail::A2aScope::Row);
            },
            {x.fftp[(std::size_t)s][(std::size_t)c]});
        x.readers[(std::size_t)s].push_back(pack);
        arrived_row[(std::size_t)t].push_back(graph.submit(
            "row-copy" + sfx, {lanes.copy(s, t), /*ordered=*/true, "a2a"},
            [&fabric, s, t, rows, pg, pr, f32] {
              fabric.record(s, t, double(pr) * double(rows) * double(pg) * sizeof(Cx),
                            "A2A-ROW", f32);
            },
            {pack}));
      }
    }
  }

  // Column phase: the intermediate t = (i,jj) scatters batch ii of every
  // sender column into d = (ii,jj)'s final cyclic layout (the only
  // transposing hop). It reads t's whole work buffer, so it waits on t's
  // row join; writes go to d's scratch slab, which nothing else touches.
  std::vector<exec::TaskId> row_join((std::size_t)g_);
  for (int t = 0; t < g_; ++t)
    row_join[(std::size_t)t] =
        graph.submit("row-join d" + std::to_string(t),
                     {lanes.compute(t), /*ordered=*/false, "sync"}, [] {},
                     arrived_row[(std::size_t)t]);
  for (int t = 0; t < g_; ++t) {
    const int i = grid_.row_of(t), jj = grid_.col_of(t);
    for (int ii = 0; ii < pr; ++ii) {
      const int d = grid_.device(ii, jj);
      const Cx* in = wk[(std::size_t)t] + index_t(ii) * block;
      Cx* out = sc[(std::size_t)d] + index_t(i) * pc * mg;
      const std::string sfx = " " + std::to_string(t) + "->" + std::to_string(d);
      const exec::TaskId pack = graph.submit(
          "col-pack" + sfx, {lanes.compute(t), /*ordered=*/false, "a2a"},
          [this, in, out, pg, mg, pc, pr, block] {
            detail::a2a_pair_fused_strided(in, out, /*nr=*/pg, /*nc=*/mg, /*in_ld=*/pg,
                                           /*out_ld=*/m_, /*batch=*/index_t(pc),
                                           /*in_bstride=*/index_t(pr) * block,
                                           /*out_bstride=*/mg, detail::A2aScope::Col);
          },
          {row_join[(std::size_t)t]});
      x.arrived[(std::size_t)d].push_back(graph.submit(
          "col-copy" + sfx, {lanes.copy(t, d), /*ordered=*/true, "a2a"},
          [&fabric, t, d, pc, block, f32] {
            fabric.record(t, d, double(pc) * double(block) * sizeof(Cx), "A2A-COL", f32);
          },
          {pack}));
    }
  }
}

template <typename T>
void Dist2dFft<T>::execute(const std::complex<T>* in, std::complex<T>* out) {
  using Cx = std::complex<T>;
  const index_t slab = m_ * p_ / g_;
  // The row FFTs run in place, so the input is copied; the write-back
  // lands each device's result straight in `out`.
  std::vector<Buffer<Cx>> local;
  std::vector<Cx*> lp, outs;
  for (int r = 0; r < g_; ++r) {
    local.emplace_back(slab);
    std::memcpy(local.back().data(), in + r * slab, sizeof(Cx) * slab);
    lp.push_back(local.back().data());
    outs.push_back(out + r * slab);
  }
  execute_slabs(lp, fabric_, outs);
}

template class DistFft1d<float>;
template class DistFft1d<double>;
template class Dist2dFft<float>;
template class Dist2dFft<double>;

}  // namespace fmmfft::dist
