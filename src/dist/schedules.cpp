#include "dist/schedules.hpp"

#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/math.hpp"

namespace fmmfft::dist {
namespace {

using sim::Schedule;
using KC = fmm::KernelClass;

double cbytes(const model::Workload& w) { return 2.0 * w.real_bytes(); }

int chunk_count(int g) { return std::max(2, g); }

/// Peer lists of a G-wide exchange: every device talks to every device.
std::vector<std::vector<int>> all_peers(int g) {
  std::vector<int> every((std::size_t)g);
  for (int d = 0; d < g; ++d) every[(std::size_t)d] = d;
  return std::vector<std::vector<int>>((std::size_t)g, every);
}

/// Chunk-pipelined all-to-all with the local pack/unpack kernels a strided
/// distributed transpose performs around each message (cuFFTXT-style
/// layout-conversion kernels). Device d exchanges with `peers[d]`: every
/// device for a G-wide exchange (all_peers), a pencil row or column group
/// for a sub-communicator phase. Pack/unpack still sweep the whole local
/// slab or pencil — every element moves (or is re-laid-out locally) in each
/// exchange. Returns per-(device, chunk) unpack ids the consumer phase
/// should depend on.
struct ChunkedA2A {
  std::vector<std::vector<int>> arrivals;
};

ChunkedA2A chunked_a2a(Schedule& s, int g, int chunks, double bytes_per_pair,
                       const std::string& tag, const model::Workload& w, double slab_pts,
                       const std::vector<std::vector<int>>& producer_deps,
                       const std::vector<std::vector<int>>& peers) {
  s.set_stage("a2a");
  ChunkedA2A out;
  out.arrivals.assign((std::size_t)g, std::vector<int>((std::size_t)chunks, -1));
  const double chunk_bytes = bytes_per_pair / chunks;
  const double chunk_mem = 2.0 * (slab_pts / chunks) * cbytes(w);  // read + write

  // Pack kernels: one per (device, chunk), gathering the strided chunk.
  std::vector<std::vector<int>> pack((std::size_t)g, std::vector<int>((std::size_t)chunks));
  for (int d = 0; d < g; ++d)
    for (int c = 0; c < chunks; ++c) {
      std::vector<int> deps;
      if (!producer_deps.empty() && producer_deps[(std::size_t)d][(std::size_t)c] >= 0)
        deps.push_back(producer_deps[(std::size_t)d][(std::size_t)c]);
      pack[(std::size_t)d][(std::size_t)c] =
          s.add_kernel(d, tag + "-pack", KC::Copy, 0.0, chunk_mem, w.is_double, deps);
    }

  // Messages: chunk c from src to every peer, gated on src's pack.
  std::vector<std::vector<std::vector<int>>> into(
      (std::size_t)g, std::vector<std::vector<int>>((std::size_t)chunks));
  for (int c = 0; c < chunks; ++c)
    for (int src = 0; src < g; ++src)
      for (int dst : peers[(std::size_t)src]) {
        if (src == dst) continue;
        into[(std::size_t)dst][(std::size_t)c].push_back(
            s.add_comm(src, dst, tag, chunk_bytes, {pack[(std::size_t)src][(std::size_t)c]}));
      }

  // Unpack kernels: scatter chunk c into the destination layout.
  for (int d = 0; d < g; ++d)
    for (int c = 0; c < chunks; ++c) {
      auto deps = into[(std::size_t)d][(std::size_t)c];
      deps.push_back(pack[(std::size_t)d][(std::size_t)c]);  // local portion
      out.arrivals[(std::size_t)d][(std::size_t)c] =
          s.add_kernel(d, tag + "-unpack", KC::Copy, 0.0, chunk_mem, w.is_double, deps);
    }
  return out;
}

/// Chunked batch-FFT phase; FFT kernels sit in the "library primitive"
/// efficiency tier, same as BatchedGEMM.
std::vector<std::vector<int>> fft_phase(Schedule& s, int g, int chunks, double total_points,
                                        double len, const model::Workload& w,
                                        const std::string& label,
                                        const std::vector<std::vector<int>>& deps) {
  s.set_stage("fft");
  std::vector<std::vector<int>> ids((std::size_t)g, std::vector<int>((std::size_t)chunks));
  const double pts = total_points / chunks;
  const double flops = 5.0 * pts * (len > 1 ? std::log2(len) : 0.0);
  const double bytes = 4.0 * pts * cbytes(w);
  for (int d = 0; d < g; ++d)
    for (int c = 0; c < chunks; ++c) {
      std::vector<int> dd;
      if (!deps.empty() && deps[(std::size_t)d][(std::size_t)c] >= 0)
        dd.push_back(deps[(std::size_t)d][(std::size_t)c]);
      ids[(std::size_t)d][(std::size_t)c] =
          s.add_kernel(d, label, KC::BatchedGemm, flops, bytes, w.is_double, dd);
    }
  return ids;
}

/// Global host-side synchronization between library phases: every device
/// stalls for sync_overhead after ALL devices complete the previous phase.
/// `sync_seconds` is resolved at simulate() time via fixed duration ops, so
/// the builder takes the value explicitly.
std::vector<std::vector<int>> global_sync(Schedule& s, int g, int chunks,
                                          const std::string& label, double seconds,
                                          const std::vector<std::vector<int>>& phase_ops) {
  s.set_stage("sync");
  std::vector<int> all;
  for (const auto& per_dev : phase_ops)
    for (int id : per_dev)
      if (id >= 0) all.push_back(id);
  const int join = s.add_meta(label + "-join", all);
  std::vector<std::vector<int>> out((std::size_t)g, std::vector<int>((std::size_t)chunks));
  for (int d = 0; d < g; ++d) {
    const int id = s.add_delay(d, label, seconds, {join});
    for (int c = 0; c < chunks; ++c) out[(std::size_t)d][(std::size_t)c] = id;
  }
  return out;
}

}  // namespace

sim::Schedule fmmfft_schedule(const fmm::Params& prm, const model::Workload& w, int g,
                              bool fuse_post) {
  prm.validate_distributed(g);
  Schedule s;
  s.set_stage("fmm");
  const int c = w.c();
  const int l = prm.l(), b = prm.b;
  const double rb = w.real_bytes();

  std::map<std::string, model::StageCount> counts;
  for (const auto& st : model::exact_fmm_counts(prm, c, g)) counts[st.name] = st;
  auto kernel = [&](int d, const std::string& name, std::vector<int> deps) {
    const auto& st = counts.at(name);
    return s.add_kernel(d, name, st.kernel, st.flops, st.mem_scalars * rb, w.is_double,
                        std::move(deps));
  };

  const double cp = double(c) * prm.p, cpm = double(c) * (prm.p - 1);
  const double s_halo_msg = cp * prm.ml * rb;           // one leaf box
  const double m_halo_msg = 2.0 * cpm * prm.q * rb;     // two expansion boxes
  const double mb_slab = cpm * prm.q * (double(prm.boxes(b)) / g) * rb;

  std::vector<int> s2m((std::size_t)g), s2t((std::size_t)g);
  std::vector<std::vector<int>> m2m((std::size_t)(l + 1), std::vector<int>((std::size_t)g, -1));
  std::vector<std::vector<int>> m2l((std::size_t)(l + 1), std::vector<int>((std::size_t)g, -1));

  // S2M on stream 0; S halo + S2T overlap with the far-field chain.
  for (int d = 0; d < g; ++d) s2m[(std::size_t)d] = kernel(d, "S2M", {});
  std::vector<std::vector<int>> s_arr((std::size_t)g);
  if (g > 1) {
    for (int d = 0; d < g; ++d) {
      s_arr[(std::size_t)((d + 1) % g)].push_back(
          s.add_comm(d, (d + 1) % g, "COMM-S", s_halo_msg, {}));
      s_arr[(std::size_t)((d + g - 1) % g)].push_back(
          s.add_comm(d, (d + g - 1) % g, "COMM-S", s_halo_msg, {}));
    }
  }
  // S2T on stream 1: overlaps the far-field BatchedGEMM chain (§4.9).
  for (int d = 0; d < g; ++d) {
    const auto& st = counts.at("S2T");
    s2t[(std::size_t)d] = s.add_kernel(d, "S2T", st.kernel, st.flops, st.mem_scalars * rb,
                                       w.is_double, s_arr[(std::size_t)d], /*stream=*/1);
  }

  for (int lev = l - 1; lev >= b; --lev)
    for (int d = 0; d < g; ++d)
      m2m[(std::size_t)lev][(std::size_t)d] = kernel(
          d, "M2M-" + std::to_string(lev),
          {lev == l - 1 ? s2m[(std::size_t)d] : m2m[(std::size_t)(lev + 1)][(std::size_t)d]});

  for (int lev = l; lev > b; --lev) {
    auto producer = [&](int d) {
      return lev == l ? s2m[(std::size_t)d] : m2m[(std::size_t)lev][(std::size_t)d];
    };
    std::vector<std::vector<int>> arr((std::size_t)g);
    if (g > 1) {
      for (int d = 0; d < g; ++d) {
        arr[(std::size_t)((d + 1) % g)].push_back(s.add_comm(
            d, (d + 1) % g, "COMM-M" + std::to_string(lev), m_halo_msg, {producer(d)}));
        arr[(std::size_t)((d + g - 1) % g)].push_back(s.add_comm(
            d, (d + g - 1) % g, "COMM-M" + std::to_string(lev), m_halo_msg, {producer(d)}));
      }
    }
    for (int d = 0; d < g; ++d) {
      auto deps = arr[(std::size_t)d];
      deps.push_back(producer(d));
      m2l[(std::size_t)lev][(std::size_t)d] = kernel(d, "M2L-" + std::to_string(lev), deps);
    }
  }

  auto base_producer = [&](int d) {
    return l == b ? s2m[(std::size_t)d] : m2m[(std::size_t)b][(std::size_t)d];
  };
  std::vector<std::vector<int>> gath((std::size_t)g);
  if (g > 1) {
    for (int src = 0; src < g; ++src)
      for (int dst = 0; dst < g; ++dst) {
        if (src == dst) continue;
        gath[(std::size_t)dst].push_back(
            s.add_comm(src, dst, "COMM-MB", mb_slab, {base_producer(src)}));
      }
  }
  std::vector<int> m2lb((std::size_t)g), reduce((std::size_t)g);
  for (int d = 0; d < g; ++d) {
    auto deps = gath[(std::size_t)d];
    deps.push_back(base_producer(d));
    m2lb[(std::size_t)d] = kernel(d, "M2L-B", deps);
    deps = gath[(std::size_t)d];
    deps.push_back(base_producer(d));
    reduce[(std::size_t)d] = kernel(d, "REDUCE", deps);
  }

  std::vector<int> prev = m2lb;
  for (int lev = b; lev < l; ++lev)
    for (int d = 0; d < g; ++d) {
      std::vector<int> deps{prev[(std::size_t)d]};
      if (lev > b && m2l[(std::size_t)lev][(std::size_t)d] >= 0)
        deps.push_back(m2l[(std::size_t)lev][(std::size_t)d]);
      prev[(std::size_t)d] = kernel(d, "L2L-" + std::to_string(lev), deps);
    }
  std::vector<int> l2t((std::size_t)g);
  for (int d = 0; d < g; ++d) {
    std::vector<int> deps{prev[(std::size_t)d], s2t[(std::size_t)d]};
    if (l > b) deps.push_back(m2l[(std::size_t)l][(std::size_t)d]);
    l2t[(std::size_t)d] = kernel(d, "L2T", deps);
  }

  // POST, fused into the 2D-FFT load (one sweep) or staged (two sweeps).
  s.set_stage("post");
  const double slab_pts = double(prm.n) / g;
  const int chunks = chunk_count(g);
  std::vector<std::vector<int>> post((std::size_t)g, std::vector<int>((std::size_t)chunks));
  for (int d = 0; d < g; ++d)
    for (int ck = 0; ck < chunks; ++ck) {
      const double pts = slab_pts / chunks;
      const double sweeps = fuse_post ? 2.0 : 4.0;
      post[(std::size_t)d][(std::size_t)ck] =
          s.add_kernel(d, "POST", KC::Custom, 8.0 * pts, sweeps * pts * cbytes(w), w.is_double,
                       {l2t[(std::size_t)d], reduce[(std::size_t)d]});
    }

  // One host sync handing off to the 2D-FFT library, then the pipelined
  // FFT-P -> single all-to-all -> FFT-M.
  auto sync = global_sync(s, g, chunks, "SYNC", -1.0, post);
  auto fft1 = fft_phase(s, g, chunks, slab_pts, double(prm.p), w, "FFT-P", sync);
  auto a2a = chunked_a2a(s, g, chunks, double(prm.n) / (double(g) * g) * cbytes(w), "A2A-2D",
                         w, slab_pts, fft1, all_peers(g));
  fft_phase(s, g, chunks, slab_pts, double(prm.m()), w, "FFT-M", a2a.arrivals);
  return s;
}

sim::Schedule baseline1d_schedule(index_t n, const model::Workload& w, int g) {
  FMMFFT_CHECK(is_pow2(n));
  Schedule s;
  const int chunks = chunk_count(g);
  const index_t mfac = index_t(1) << ((ilog2_exact(n) + 1) / 2);
  const index_t pfac = n / mfac;
  const double slab_pts = double(n) / g;
  const double pair_bytes = double(n) / (double(g) * g) * cbytes(w);
  

  // Six phases, each followed by a host-side synchronization: the
  // transpose-heavy structure that makes cuFFTXT latency-bound at small N.
  const auto peers = all_peers(g);
  auto a1 = chunked_a2a(s, g, chunks, pair_bytes, "A2A-1", w, slab_pts, {}, peers);
  auto sy1 = global_sync(s, g, chunks, "SYNC", -1.0, a1.arrivals);
  auto f1 = fft_phase(s, g, chunks, slab_pts, double(mfac), w, "FFT-M", sy1);
  std::vector<std::vector<int>> tw((std::size_t)g, std::vector<int>((std::size_t)chunks));
  s.set_stage("fft");  // twiddle fixup rides the FFT phase
  for (int d = 0; d < g; ++d)
    for (int c = 0; c < chunks; ++c)
      tw[(std::size_t)d][(std::size_t)c] =
          s.add_kernel(d, "TWIDDLE", KC::Custom, 6.0 * slab_pts / chunks,
                       2.0 * slab_pts / chunks * cbytes(w), w.is_double,
                       {f1[(std::size_t)d][(std::size_t)c]});
  auto sy2 = global_sync(s, g, chunks, "SYNC", -1.0, tw);
  auto a2 = chunked_a2a(s, g, chunks, pair_bytes, "A2A-2", w, slab_pts, sy2, peers);
  auto sy3 = global_sync(s, g, chunks, "SYNC", -1.0, a2.arrivals);
  auto f2 = fft_phase(s, g, chunks, slab_pts, double(pfac), w, "FFT-P", sy3);
  auto sy4 = global_sync(s, g, chunks, "SYNC", -1.0, f2);
  auto a3 = chunked_a2a(s, g, chunks, pair_bytes, "A2A-3", w, slab_pts, sy4, peers);
  global_sync(s, g, chunks, "SYNC", -1.0, a3.arrivals);
  return s;
}

sim::Schedule dist2dfft_schedule(index_t m, index_t p, const model::Workload& w, int g) {
  Schedule s;
  const int chunks = chunk_count(g);
  const double n = double(m) * double(p);
  const double slab_pts = n / g;
  auto f1 = fft_phase(s, g, chunks, slab_pts, double(p), w, "FFT-P", {});
  auto a2a = chunked_a2a(s, g, chunks, n / (double(g) * g) * cbytes(w), "A2A-2D", w, slab_pts,
                         f1, all_peers(g));
  fft_phase(s, g, chunks, slab_pts, double(m), w, "FFT-M", a2a.arrivals);
  return s;
}

sim::Schedule fft3d_schedule(index_t n0, index_t n1, index_t n2, const model::Workload& w,
                             int g, model::Decomp decomp, model::GridShape grid) {
  FMMFFT_CHECK_MSG(decomp != model::Decomp::Auto,
                   "fft3d_schedule needs a resolved decomposition — call "
                   "model::choose_decomp first");
  Schedule s;
  const int chunks = chunk_count(g);
  const double n = double(n0) * double(n1) * double(n2);
  const double slab_pts = n / g;

  if (decomp == model::Decomp::Slab) {
    FMMFFT_CHECK_MSG(model::slab_feasible_3d(n0, n1, n2, g),
                     "slab layout does not divide " << n0 << "x" << n1 << "x" << n2
                                                    << " across " << g << " devices");
    auto f0 = fft_phase(s, g, chunks, slab_pts, double(n0), w, "FFT-X", {});
    // Local i0<->i1 reorientation between the line phases: pure copies, one
    // read + one write of the slab (the term fft3d_slab_seconds prices and
    // the pencil layout folds into its row hop).
    s.set_stage("transpose");
    std::vector<std::vector<int>> tr((std::size_t)g, std::vector<int>((std::size_t)chunks));
    const double tr_mem = 2.0 * (slab_pts / chunks) * cbytes(w);
    for (int d = 0; d < g; ++d)
      for (int c = 0; c < chunks; ++c)
        tr[(std::size_t)d][(std::size_t)c] =
            s.add_kernel(d, "REORIENT", KC::Copy, 0.0, tr_mem, w.is_double,
                         {f0[(std::size_t)d][(std::size_t)c]});
    auto f1 = fft_phase(s, g, chunks, slab_pts, double(n1), w, "FFT-Y", tr);
    auto a2a = chunked_a2a(s, g, chunks, n / (double(g) * g) * cbytes(w), "A2A-3D", w,
                           slab_pts, f1, all_peers(g));
    fft_phase(s, g, chunks, slab_pts, double(n2), w, "FFT-Z", a2a.arrivals);
    return s;
  }

  FMMFFT_CHECK_MSG(grid.devices() == g, "processor grid " << grid.pr << "x" << grid.pc
                                                          << " does not cover " << g
                                                          << " devices");
  FMMFFT_CHECK_MSG(model::pencil_feasible_3d(n0, n1, n2, grid),
                   "pencil grid " << grid.pr << "x" << grid.pc << " does not divide " << n0
                                  << "x" << n1 << "x" << n2);
  // Device d sits at row d / pc, column d % pc of the grid; each exchange
  // stays inside one row (pc peers) or one column (pr peers).
  const int pr = grid.pr, pc = grid.pc;
  std::vector<std::vector<int>> row_peers((std::size_t)g), col_peers((std::size_t)g);
  for (int d = 0; d < g; ++d) {
    const int i = d / pc, j = d % pc;
    for (int jj = 0; jj < pc; ++jj) row_peers[(std::size_t)d].push_back(i * pc + jj);
    for (int ii = 0; ii < pr; ++ii) col_peers[(std::size_t)d].push_back(ii * pc + j);
  }
  auto f0 = fft_phase(s, g, chunks, slab_pts, double(n0), w, "FFT-X", {});
  auto row = chunked_a2a(s, g, chunks, n / (double(g) * pc) * cbytes(w), "A2A-ROW", w,
                         slab_pts, f0, row_peers);
  auto f1 = fft_phase(s, g, chunks, slab_pts, double(n1), w, "FFT-Y", row.arrivals);
  auto col = chunked_a2a(s, g, chunks, n / (double(g) * pr) * cbytes(w), "A2A-COL", w,
                         slab_pts, f1, col_peers);
  fft_phase(s, g, chunks, slab_pts, double(n2), w, "FFT-Z", col.arrivals);
  return s;
}

}  // namespace fmmfft::dist
