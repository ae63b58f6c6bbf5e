#include "dist/dfft3d.hpp"

#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/permute.hpp"
#include "dist/collectives.hpp"
#include "dist/dfft.hpp"
#include "obs/obs.hpp"

namespace fmmfft::dist {
namespace {

template <typename T>
std::vector<std::complex<T>*> ptrs(std::vector<Buffer<std::complex<T>>>& bufs) {
  std::vector<std::complex<T>*> p;
  p.reserve(bufs.size());
  for (auto& b : bufs) p.push_back(b.data());
  return p;
}

}  // namespace

template <typename T>
Dist3dFft<T>::Dist3dFft(index_t n0, index_t n1, index_t n2, int g, model::Decomp decomp,
                        model::GridShape grid)
    : n0_(n0), n1_(n1), n2_(n2), g_(g), fabric_(g), plan0_(n0), plan1_(n1), plan2_(n2) {
  FMMFFT_CHECK_MSG(is_pow2(n0) && is_pow2(n1) && is_pow2(n2),
                   "3D FFT extents must be powers of two");
  FMMFFT_CHECK_MSG(g >= 1, "need at least one device");
  const DecompChoice choice = resolve_decomp_3d(g, n0, n1, n2, decomp, grid);
  decomp_ = choice.decomp;
  grid_ = choice.grid;
  decision_ = choice.decision;
  const index_t local = n0_ * n1_ * n2_ / g_;
  for (int r = 0; r < g_; ++r) {
    buf_a_.emplace_back(local);
    buf_b_.emplace_back(local);
  }
}

// ---------------------------------------------------------------------------
// Host staging. Residency placement, not fabric traffic (as in DistFft1d).

template <typename T>
void Dist3dFft<T>::scatter(const std::complex<T>* in) {
  using Cx = std::complex<T>;
  if (decomp_ == model::Decomp::Slab) {
    const index_t slab = n0_ * n1_ * n2_ / g_;
    for (int r = 0; r < g_; ++r)
      std::memcpy(buf_a_[(std::size_t)r].data(), in + r * slab, sizeof(Cx) * slab);
    return;
  }
  // x-pencils: device (i, j) holds all i0, i1-block j, i2-block i.
  const index_t n1pc = n1_ / grid_.pc, n2pr = n2_ / grid_.pr;
  for (int d = 0; d < g_; ++d) {
    const int i = grid_.row_of(d), j = grid_.col_of(d);
    Cx* dst = buf_a_[(std::size_t)d].data();
    for (index_t i2 = 0; i2 < n2pr; ++i2)
      for (index_t i1 = 0; i1 < n1pc; ++i1)
        std::memcpy(dst + n0_ * (i1 + n1pc * i2),
                    in + n0_ * ((j * n1pc + i1) + n1_ * (i * n2pr + i2)),
                    sizeof(Cx) * (std::size_t)n0_);
  }
}

template <typename T>
void Dist3dFft<T>::gather(std::complex<T>* out) const {
  using Cx = std::complex<T>;
  if (decomp_ == model::Decomp::Slab) {
    // After the global exchange device r owns the μ = i1 + n1·i0 range
    // [r·(n0·n1/G), ...) in z[i2 + n2·μ] order — one contiguous block.
    const index_t slab = n0_ * n1_ * n2_ / g_;
    for (int r = 0; r < g_; ++r)
      std::memcpy(out + r * slab, buf_a_[(std::size_t)r].data(), sizeof(Cx) * slab);
    return;
  }
  // z-pencils: device (ii, jj) holds all i2, i1-block ii, i0-block jj.
  const index_t n0pc = n0_ / grid_.pc, n1pr = n1_ / grid_.pr;
  for (int d = 0; d < g_; ++d) {
    const int ii = grid_.row_of(d), jj = grid_.col_of(d);
    const Cx* src = buf_a_[(std::size_t)d].data();
    for (index_t i0 = 0; i0 < n0pc; ++i0)
      for (index_t i1 = 0; i1 < n1pr; ++i1)
        std::memcpy(out + n2_ * ((ii * n1pr + i1) + n1_ * (jj * n0pc + i0)),
                    src + n2_ * (i1 + n1pr * i0), sizeof(Cx) * (std::size_t)n2_);
  }
}

// ---------------------------------------------------------------------------
// Task-graph submission.

template <typename T>
std::vector<exec::TaskId> Dist3dFft<T>::submit_slab(exec::TaskGraph& graph,
                                                    const exec::DeviceLanes& lanes) {
  using Cx = std::complex<T>;
  auto a = ptrs(buf_a_);
  auto b = ptrs(buf_b_);
  const index_t n2g = n2_ / g_, plane = n0_ * n1_, pg01 = plane / g_;
  const index_t nc = std::min<index_t>(std::max<index_t>(2, g_), n2g);
  const index_t step = (n2g + nc - 1) / nc;
  const bool f32 = sizeof(T) == 4;

  // Per-chunk fft0 → reorient → fft1 over each device's local i2 planes.
  std::vector<std::vector<exec::TaskId>> fft1((std::size_t)g_), trans((std::size_t)g_);
  for (int r = 0; r < g_; ++r)
    for (index_t c = 0; c < nc; ++c) {
      const index_t lo = c * step, hi = std::min(n2g, lo + step);
      if (lo >= hi) break;
      Cx* ap = a[(std::size_t)r] + lo * plane;
      Cx* bp = b[(std::size_t)r] + lo * plane;
      const index_t planes = hi - lo;
      const exec::TaskId f0 = graph.submit(
          "fft0 d" + std::to_string(r) + " c" + std::to_string(c),
          {lanes.compute(r), /*ordered=*/false, "fft"},
          [this, ap, planes] {
            FMMFFT_SPAN("3DFFT-0");
            detail::forward_lines(plan0_, ap, planes * n1_);
          },
          {});
      const exec::TaskId tr = graph.submit(
          "t01 d" + std::to_string(r) + " c" + std::to_string(c),
          {lanes.compute(r), /*ordered=*/false, "transpose"},
          [this, ap, bp, planes, plane] {
            FMMFFT_SPAN("3DFFT-T01");
            for (index_t t = 0; t < planes; ++t)
              transpose_blocked(ap + t * plane, bp + t * plane, n0_, n1_);
          },
          {f0});
      trans[(std::size_t)r].push_back(tr);
      fft1[(std::size_t)r].push_back(graph.submit(
          "fft1 d" + std::to_string(r) + " c" + std::to_string(c),
          {lanes.compute(r), /*ordered=*/false, "fft"},
          [this, bp, planes] {
            FMMFFT_SPAN("3DFFT-1");
            detail::forward_lines(plan1_, bp, planes * n0_);
          },
          {tr}));
    }

  // WAR gate: a pack scattering into device rr's A slab must wait until
  // rr's reorientation chunks have finished reading it.
  std::vector<exec::TaskId> war((std::size_t)g_);
  for (int r = 0; r < g_; ++r)
    war[(std::size_t)r] =
        graph.submit("t01-done d" + std::to_string(r),
                     {lanes.compute(r), /*ordered=*/false, "sync"}, [] {},
                     trans[(std::size_t)r]);

  // The one G-wide exchange, chunk-pipelined exactly like Dist2dFft: a
  // chunk's fused scatter waits only on the fft1 chunk that produced its
  // planes (plus the receiver's WAR gate); the pair's link lane carries
  // the accounting task.
  std::vector<std::vector<exec::TaskId>> arrived((std::size_t)g_);
  for (int r = 0; r < g_; ++r)
    for (int rr = 0; rr < g_; ++rr)
      for (index_t c = 0; c < nc; ++c) {
        const index_t lo = c * step, hi = std::min(n2g, lo + step);
        if (lo >= hi) break;
        const Cx* in = b[(std::size_t)r];
        Cx* out = a[(std::size_t)rr];
        const index_t cnt = (hi - lo) * pg01;
        const std::string sfx =
            " " + std::to_string(r) + "->" + std::to_string(rr) + " c" + std::to_string(c);
        const exec::TaskId pack = graph.submit(
            "pack" + sfx, {lanes.compute(r), /*ordered=*/false, "a2a"},
            [this, in, out, r, rr, lo, hi, n2g, pg01, plane] {
              detail::a2a_pair_fused(in, out, r, rr, n2_, plane, n2g, pg01, lo, hi);
            },
            {fft1[(std::size_t)r][(std::size_t)c], war[(std::size_t)rr]});
        arrived[(std::size_t)rr].push_back(graph.submit(
            "copy" + sfx, {lanes.copy(r, rr), /*ordered=*/true, "a2a"},
            [this, r, rr, cnt, f32] {
              fabric_.record(r, rr, double(cnt) * sizeof(Cx), "A2A-3D", f32);
            },
            {pack}));
      }

  // fft2 per device once its whole z slab has arrived.
  std::vector<exec::TaskId> terminal((std::size_t)g_);
  for (int r = 0; r < g_; ++r) {
    const exec::TaskId join =
        graph.submit("a2a-join d" + std::to_string(r),
                     {lanes.compute(r), /*ordered=*/false, "sync"}, [] {},
                     arrived[(std::size_t)r]);
    std::vector<exec::TaskId> fft2 = detail::submit_line_ffts(
        graph, lanes, r, "fft2", "3DFFT-2", plan2_, a[(std::size_t)r], pg01, 1, nc, {join});
    terminal[(std::size_t)r] =
        graph.submit("done d" + std::to_string(r),
                     {lanes.compute(r), /*ordered=*/false, "sync"}, [] {}, std::move(fft2));
  }
  return terminal;
}

template <typename T>
std::vector<exec::TaskId> Dist3dFft<T>::submit_pencil(exec::TaskGraph& graph,
                                                      const exec::DeviceLanes& lanes) {
  using Cx = std::complex<T>;
  auto a = ptrs(buf_a_);
  auto b = ptrs(buf_b_);
  const int pr = grid_.pr, pc = grid_.pc;
  const index_t n0pc = n0_ / pc, n1pc = n1_ / pc, n1pr = n1_ / pr, n2pr = n2_ / pr;
  const index_t nc = std::min<index_t>(std::max<index_t>(2, g_), n2pr);
  const index_t step = (n2pr + nc - 1) / nc;
  const bool f32 = sizeof(T) == 4;

  // (a) fft0 chunks over local i2 planes (n1pc lines each) of the x-pencils.
  std::vector<std::vector<exec::TaskId>> fft0((std::size_t)g_);
  for (int d = 0; d < g_; ++d)
    fft0[(std::size_t)d] = detail::submit_line_ffts(graph, lanes, d, "fft0", "3DFFT-0", plan0_,
                                                    a[(std::size_t)d], n2pr, n1pc, nc, {});

  // (b) Row-phase packs, chunked over the same i2 planes so a pair's first
  // chunks ship while the sender's remaining fft0 chunks still run.
  std::vector<std::vector<exec::TaskId>> arrived_row((std::size_t)g_);
  std::vector<std::vector<exec::TaskId>> packs_row_from((std::size_t)g_);
  for (int s = 0; s < g_; ++s) {
    const int i = grid_.row_of(s), j = grid_.col_of(s);
    for (int jj = 0; jj < pc; ++jj) {
      const int t = grid_.device(i, jj);
      for (index_t c = 0; c < nc; ++c) {
        const index_t lo = c * step, hi = std::min(n2pr, lo + step);
        if (lo >= hi) break;
        const Cx* in = a[(std::size_t)s] + index_t(jj) * n0pc + lo * n0_ * n1pc;
        Cx* out = b[(std::size_t)t] + index_t(j) * n1pc + lo * n1_ * n0pc;
        const index_t planes = hi - lo;
        const std::string sfx =
            " " + std::to_string(s) + "->" + std::to_string(t) + " c" + std::to_string(c);
        const exec::TaskId pack = graph.submit(
            "row-pack" + sfx, {lanes.compute(s), /*ordered=*/false, "a2a"},
            [this, in, out, planes, n0pc, n1pc] {
              detail::a2a_pair_fused_strided(in, out, /*nr=*/n0pc, /*nc=*/n1pc,
                                             /*in_ld=*/n0_, /*out_ld=*/n1_, /*batch=*/planes,
                                             /*in_bstride=*/n0_ * n1pc,
                                             /*out_bstride=*/n1_ * n0pc,
                                             detail::A2aScope::Row);
            },
            {fft0[(std::size_t)s][(std::size_t)c]});
        packs_row_from[(std::size_t)s].push_back(pack);
        arrived_row[(std::size_t)t].push_back(graph.submit(
            "row-copy" + sfx, {lanes.copy(s, t), /*ordered=*/true, "a2a"},
            [this, s, t, planes, n0pc, n1pc, f32] {
              fabric_.record(s, t, double(planes) * double(n0pc) * double(n1pc) * sizeof(Cx),
                             "A2A-ROW", f32);
            },
            {pack}));
      }
    }
  }

  // (c) fft1 chunks on the y-pencils once every row fragment arrived, plus
  // the WAR gate for the column phase scattering back into the A buffers.
  std::vector<exec::TaskId> fft1_join((std::size_t)g_), war((std::size_t)g_);
  for (int d = 0; d < g_; ++d) {
    const exec::TaskId row_join =
        graph.submit("row-join d" + std::to_string(d),
                     {lanes.compute(d), /*ordered=*/false, "sync"}, [] {},
                     arrived_row[(std::size_t)d]);
    std::vector<exec::TaskId> fft1 = detail::submit_line_ffts(
        graph, lanes, d, "fft1", "3DFFT-1", plan1_, b[(std::size_t)d], n0pc * n2pr, 1, nc,
        {row_join});
    fft1_join[(std::size_t)d] =
        graph.submit("fft1-join d" + std::to_string(d),
                     {lanes.compute(d), /*ordered=*/false, "sync"}, [] {}, std::move(fft1));
    war[(std::size_t)d] = graph.submit("row-read-done d" + std::to_string(d),
                                       {lanes.compute(d), /*ordered=*/false, "sync"}, [] {},
                                       packs_row_from[(std::size_t)d]);
  }

  // (d) Column-phase packs: one fused pair message (i,jj) → (ii,jj); the
  // column transpose reads i0-strided lines of the whole y-pencil, so it
  // waits on the sender's fft1 join and the receiver's WAR gate.
  std::vector<std::vector<exec::TaskId>> arrived_col((std::size_t)g_);
  for (int t = 0; t < g_; ++t) {
    const int i = grid_.row_of(t), jj = grid_.col_of(t);
    for (int ii = 0; ii < pr; ++ii) {
      const int d = grid_.device(ii, jj);
      const Cx* in = b[(std::size_t)t] + index_t(ii) * n1pr;
      Cx* out = a[(std::size_t)d] + index_t(i) * n2pr;
      const std::string sfx = " " + std::to_string(t) + "->" + std::to_string(d);
      const exec::TaskId pack = graph.submit(
          "col-pack" + sfx, {lanes.compute(t), /*ordered=*/false, "a2a"},
          [this, in, out, n0pc, n1pr, n2pr] {
            detail::a2a_pair_fused_strided(in, out, /*nr=*/n1pr, /*nc=*/n2pr,
                                           /*in_ld=*/n1_ * n0pc, /*out_ld=*/n2_,
                                           /*batch=*/n0pc, /*in_bstride=*/n1_,
                                           /*out_bstride=*/n2_ * n1pr, detail::A2aScope::Col);
          },
          {fft1_join[(std::size_t)t], war[(std::size_t)d]});
      arrived_col[(std::size_t)d].push_back(graph.submit(
          "col-copy" + sfx, {lanes.copy(t, d), /*ordered=*/true, "a2a"},
          [this, t, d, n0pc, n1pr, n2pr, f32] {
            fabric_.record(t, d, double(n0pc) * double(n1pr) * double(n2pr) * sizeof(Cx),
                           "A2A-COL", f32);
          },
          {pack}));
    }
  }

  // (e) fft2 chunks on the z-pencils.
  std::vector<exec::TaskId> terminal((std::size_t)g_);
  for (int d = 0; d < g_; ++d) {
    const exec::TaskId join =
        graph.submit("col-join d" + std::to_string(d),
                     {lanes.compute(d), /*ordered=*/false, "sync"}, [] {},
                     arrived_col[(std::size_t)d]);
    std::vector<exec::TaskId> fft2 = detail::submit_line_ffts(
        graph, lanes, d, "fft2", "3DFFT-2", plan2_, a[(std::size_t)d], n0pc * n1pr, 1, nc,
        {join});
    terminal[(std::size_t)d] =
        graph.submit("done d" + std::to_string(d),
                     {lanes.compute(d), /*ordered=*/false, "sync"}, [] {}, std::move(fft2));
  }
  return terminal;
}

template <typename T>
void Dist3dFft<T>::execute(const std::complex<T>* in, std::complex<T>* out) {
  scatter(in);
  exec::DeviceLanes lanes(g_);
  exec::TaskGraph graph(lanes.count());
  graph.name_lanes(lanes);
  if (decomp_ == model::Decomp::Slab)
    submit_slab(graph, lanes);
  else
    submit_pencil(graph, lanes);
  graph.run(exec::resolve_mode(n0_ * n1_ * n2_ / g_));
  gather(out);
}

template class Dist3dFft<float>;
template class Dist3dFft<double>;

}  // namespace fmmfft::dist
