// Layer replays: each function calls one layer's public API at a workload's
// exact shapes on live data, wrapping every call in a benchmark span.
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <type_traits>

#include "bench.hpp"
#include "blas/blas.hpp"
#include "common/aligned.hpp"
#include "common/permute.hpp"
#include "dist/collectives.hpp"
#include "dist/schedules.hpp"
#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "fmm/engine.hpp"
#include "fmm/operators.hpp"
#include "model/arch.hpp"
#include "obs/analyze.hpp"
#include "sim/fabric.hpp"

namespace perfbench {

using namespace fmmfft;

// --- Trace ------------------------------------------------------------------

std::vector<double> Trace::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const auto& s : spans_)
    if (s.parent >= 0) self[std::size_t(s.parent)] -= s.seconds();
  return self;
}

namespace {

template <typename Match>
double median_self_where(const Trace& tr, Match match) {
  const auto self = tr.self_seconds();
  std::map<int, double> per_transform;
  for (std::size_t i = 0; i < tr.spans().size(); ++i)
    if (match(tr.spans()[i].name)) per_transform[tr.spans()[i].transform] += self[i];
  std::vector<double> v;
  for (const auto& [id, s] : per_transform) v.push_back(s);
  return median(v);
}

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

double Trace::median_self_any(const std::vector<std::string>& names) const {
  return median_self_where(*this, [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  });
}

double Trace::median_self_prefix(const std::string& prefix) const {
  return median_self_where(*this,
                           [&](const std::string& n) { return n.rfind(prefix, 0) == 0; });
}

bool Trace::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const auto self = self_seconds();
  os << "{\"schema\": \"perfbench.spans.v1\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": ";
    json_string(os, s.name);
    os << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"transform\": " << s.transform
       << ", \"self_s\": " << self[i] << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
  return os.good();
}

// --- FMM --------------------------------------------------------------------

namespace {

template <typename T>
std::vector<T*> ptrs(std::vector<Buffer<T>>& bufs) {
  std::vector<T*> v;
  for (auto& b : bufs) v.push_back(b.data());
  return v;
}

template <typename ER>
FmmReplayCounts replay_fmm_t(Trace& tr, const fmm::Params& prm, int g, const cplx* input,
                             int reps) {
  std::vector<std::unique_ptr<fmm::Engine<ER>>> es;
  for (int r = 0; r < g; ++r) es.push_back(std::make_unique<fmm::Engine<ER>>(prm, 2, g, r));
  sim::Fabric fabric(g);
  const index_t slab_n = prm.n / g;
  const int l = prm.l(), b = prm.b;
  const index_t nb = es[0]->local_leaves();

  auto each = [&](const char* span, int id, auto&& fn) {
    ScopedSpan s(tr, span, id);
    for (auto& e : es) fn(*e);
  };
  auto source_halos = [&](int id) {
    ScopedSpan s(tr, "dist.halo", id);
    if (g == 1) {
      es[0]->fill_source_halo_cyclic();
      return;
    }
    std::vector<const ER*> lo_src, hi_src;
    std::vector<ER*> lo_dst, hi_dst;
    for (auto& e : es) {
      lo_src.push_back(e->source_box(0));
      hi_src.push_back(e->source_box(nb - 1));
      lo_dst.push_back(e->source_box(-1));
      hi_dst.push_back(e->source_box(nb));
    }
    dist::halo_exchange_ring(fabric, lo_src, hi_src, lo_dst, hi_dst, es[0]->source_box_elems(),
                             "COMM-S");
  };
  auto multipole_halos = [&](int lev, int id) {
    ScopedSpan s(tr, "dist.halo", id);
    if (g == 1) {
      es[0]->fill_multipole_halo_cyclic(lev);
      return;
    }
    const index_t nbl = es[0]->local_boxes(lev);
    std::vector<const ER*> lo_src, hi_src;
    std::vector<ER*> lo_dst, hi_dst;
    for (auto& e : es) {
      lo_src.push_back(e->multipole_box(lev, 0));
      hi_src.push_back(e->multipole_box(lev, nbl - 2));
      lo_dst.push_back(e->multipole_box(lev, -2));
      hi_dst.push_back(e->multipole_box(lev, nbl));
    }
    dist::halo_exchange_ring(fabric, lo_src, hi_src, lo_dst, hi_dst,
                             2 * es[0]->expansion_box_elems(), "COMM-M" + std::to_string(lev));
  };
  auto allgather_base = [&](int id) {
    if (g == 1) return;  // the single engine's base buffer is already global
    ScopedSpan s(tr, "dist.allgather", id);
    std::vector<const ER*> src;
    std::vector<ER*> dst;
    for (auto& e : es) {
      src.push_back(e->multipole_box(b, e->box_offset(b)));
      dst.push_back(e->multipole_box(b, 0));
    }
    dist::allgather(fabric, src, dst, es[0]->local_boxes(b) * es[0]->expansion_box_elems(),
                    "COMM-MB");
  };

  for (int rep = 0; rep < reps; ++rep) {
    const int id = tr.next_transform();
    ScopedSpan root(tr, "replay.fmm", id);
    {
      ScopedSpan s(tr, "core.load", id);
      for (int r = 0; r < g; ++r) {
        auto& e = *es[std::size_t(r)];
        e.reset_stats();
        e.zero();
        const double* src = reinterpret_cast<const double*>(input + r * slab_n);
        ER* dst = e.source_box(0);
        if constexpr (std::is_same_v<ER, double>)
          std::memcpy(dst, src, sizeof(cplx) * std::size_t(slab_n));
        else
          for (index_t i = 0; i < 2 * slab_n; ++i) dst[i] = ER(src[i]);
      }
    }
    each("fmm.s2m", id, [](auto& e) { e.s2m(); });
    source_halos(id);
    each("fmm.s2t", id, [](auto& e) { e.s2t(); });
    for (int lev = l - 1; lev >= b; --lev) each("fmm.m2m", id, [&](auto& e) { e.m2m(lev); });
    for (int lev = l; lev > b; --lev) {
      multipole_halos(lev, id);
      each("fmm.m2l", id, [&](auto& e) { e.m2l_level(lev); });
    }
    allgather_base(id);
    each("fmm.m2l", id, [](auto& e) { e.m2l_base(); });
    each("fmm.reduce", id, [](auto& e) { e.reduce(); });
    for (int lev = b; lev < l; ++lev) each("fmm.l2l", id, [&](auto& e) { e.l2l(lev); });
    each("fmm.l2t", id, [](auto& e) { e.l2t(); });
  }

  FmmReplayCounts c;
  for (auto& e : es) {
    for (const auto& st : e->stats()) {
      if (st.name == "S2T") {
        c.s2t_flops += st.flops;
        c.s2t_bytes += st.mem_bytes;
      } else if (st.name.rfind("M2L", 0) == 0) {
        c.m2l_flops += st.flops;
        c.m2l_bytes += st.mem_bytes;
      }
    }
  }
  return c;
}

}  // namespace

FmmReplayCounts replay_fmm(Trace& tr, const fmm::Params& prm, int g, fmm::Precision prec,
                           const cplx* input, int reps) {
  return prec == fmm::Precision::Mixed ? replay_fmm_t<float>(tr, prm, g, input, reps)
                                       : replay_fmm_t<double>(tr, prm, g, input, reps);
}

// --- FFT, transpose, all-to-all --------------------------------------------

double replay_fft2d(Trace& tr, index_t m, index_t p, int g, const cplx* input, int reps) {
  const index_t slab = m * p / g;
  std::vector<Buffer<cplx>> data, scratch;
  for (int r = 0; r < g; ++r) {
    data.emplace_back(slab);
    scratch.emplace_back(slab);
  }
  auto d = ptrs(data), sc = ptrs(scratch);
  const fft::Plan1D<double> plan_p(p), plan_m(m);
  sim::Fabric fabric(g);
  for (int rep = 0; rep < reps; ++rep) {
    const int id = tr.next_transform();
    for (int r = 0; r < g; ++r)
      std::memcpy(d[std::size_t(r)], input + r * slab, sizeof(cplx) * std::size_t(slab));
    ScopedSpan root(tr, "replay.fft2d", id);
    {
      ScopedSpan s(tr, "fft.batched", id);
      for (int r = 0; r < g; ++r)
        plan_p.execute_batched(d[std::size_t(r)], m / g, fft::Direction::Forward);
    }
    if (g == 1) {
      ScopedSpan s(tr, "common.transpose", id);
      permute_mp(d[0], sc[0], m, p);
    } else {
      ScopedSpan s(tr, "dist.a2a", id);
      dist::all_to_all_permute_mp(fabric, d, sc, m, p, "A2A-2D");
    }
    {
      ScopedSpan s(tr, "fft.batched", id);
      for (int r = 0; r < g; ++r)
        plan_m.execute_batched(sc[std::size_t(r)], p / g, fft::Direction::Forward);
    }
    {
      ScopedSpan s(tr, "core.copy", id);
      for (int r = 0; r < g; ++r)
        std::memcpy(d[std::size_t(r)], sc[std::size_t(r)], sizeof(cplx) * std::size_t(slab));
    }
    if (g == 1) {
      // Off the single-device path: the same exchange through the collective
      // on a one-device fabric, so dist.a2a_s is measured on every workload.
      ScopedSpan s(tr, "dist.a2a", id);
      dist::all_to_all_permute_mp(fabric, d, sc, m, p, "A2A-2D");
    }
  }
  return 2.0 * double(m) * double(p);
}

double replay_fft3d_slab(Trace& tr, index_t n0, index_t n1, index_t n2, int g, const cplx* input,
                         int reps, std::vector<double>& device_seconds) {
  const index_t local = n0 * n1 * n2 / g, n2g = n2 / g, plane = n0 * n1;
  std::vector<Buffer<cplx>> bufa, bufb;
  for (int r = 0; r < g; ++r) {
    bufa.emplace_back(local);
    bufb.emplace_back(local);
  }
  auto a = ptrs(bufa), b = ptrs(bufb);
  const fft::Plan1D<double> plan0(n0), plan1(n1), plan2(n2);
  sim::Fabric fabric(g);
  Buffer<cplx> out(n0 * n1 * n2);
  for (int rep = 0; rep < reps; ++rep) {
    const int id = tr.next_transform();
    device_seconds.assign(std::size_t(g), 0.0);
    auto timed = [&](int r, auto&& fn) {
      const std::uint64_t t0 = now_ns();
      fn();
      device_seconds[std::size_t(r)] += double(now_ns() - t0) * 1e-9;
    };
    ScopedSpan root(tr, "replay.fft3d", id);
    {
      ScopedSpan s(tr, "dist.stage", id);
      for (int r = 0; r < g; ++r)
        std::memcpy(a[std::size_t(r)], input + r * local, sizeof(cplx) * std::size_t(local));
    }
    {
      ScopedSpan s(tr, "fft.batched", id);
      for (int r = 0; r < g; ++r)
        timed(r, [&] {
          plan0.execute_batched(a[std::size_t(r)], n1 * n2g, fft::Direction::Forward);
        });
    }
    {
      ScopedSpan s(tr, "common.transpose", id);
      for (int r = 0; r < g; ++r)
        timed(r, [&] {
          for (index_t t = 0; t < n2g; ++t)
            transpose_blocked(a[std::size_t(r)] + t * plane, b[std::size_t(r)] + t * plane, n0,
                              n1);
        });
    }
    {
      ScopedSpan s(tr, "fft.batched", id);
      for (int r = 0; r < g; ++r)
        timed(r, [&] {
          plan1.execute_batched(b[std::size_t(r)], n0 * n2g, fft::Direction::Forward);
        });
    }
    {
      ScopedSpan s(tr, "dist.a2a", id);
      dist::all_to_all_permute_mp(fabric, b, a, n2, plane, "A2A-3D");
    }
    {
      ScopedSpan s(tr, "fft.batched", id);
      for (int r = 0; r < g; ++r)
        timed(r, [&] {
          plan2.execute_batched(a[std::size_t(r)], plane / g, fft::Direction::Forward);
        });
    }
    {
      // Gather back into one host array, as Dist3dFft::execute does.
      ScopedSpan s(tr, "dist.stage", id);
      for (int r = 0; r < g; ++r)
        std::memcpy(out.data() + r * local, a[std::size_t(r)],
                    sizeof(cplx) * std::size_t(local));
    }
  }
  return 3.0 * double(n0) * double(n1) * double(n2);
}

void replay_transpose(Trace& tr, index_t rows, index_t cols, index_t count, const cplx* input,
                      int reps) {
  Buffer<cplx> dst(rows * cols * count);
  for (int rep = 0; rep < reps; ++rep) {
    const int id = tr.next_transform();
    ScopedSpan s(tr, "common.transpose_sweep", id);
    for (index_t t = 0; t < count; ++t)
      transpose_blocked(input + t * rows * cols, dst.data() + t * rows * cols, rows, cols);
  }
}

// --- BLAS -------------------------------------------------------------------

namespace {

template <typename T>
double replay_gemm_t(Trace& tr, const fmm::Params& prm, int g, int reps) {
  // Engine tensor shapes (fmm/engine.cpp): cpm = C·(P-1) rows, Q-term
  // expansions, nb leaf boxes per device; the operator is shared across the
  // batch (stride_b = 0).
  const index_t cp = 2 * prm.p, cpm = 2 * (prm.p - 1), q = prm.q, ml = prm.ml;
  const index_t nb = prm.leaves() / g;
  const index_t nbl = std::max<index_t>(1, prm.boxes(prm.l() - 1) / g);  // finest M2M/L2L level
  Buffer<T> src(cp * ml * nb), exp_fine(2 * cpm * q * nbl), exp_coarse(cpm * q * nb);
  for (index_t i = 0; i < src.size(); ++i) src[i] = T(i % 13) * T(0.01);
  auto cast = [](const std::vector<double>& v) { return std::vector<T>(v.begin(), v.end()); };
  const std::vector<T> s2m_op = cast(fmm::s2m_matrix(int(q), ml)), m2m_op = cast(fmm::m2m_matrix(int(q)));
  double flops = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const int id = tr.next_transform();
    ScopedSpan s(tr, "blas.gemm", id);
    flops = 0;
    // S2M: (cpm × ML) · (ML × Q)ᵀ-shaped per leaf box.
    blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::T, cpm, q, ml, T(1), src.data() + 2, cp,
                                  cp * ml, s2m_op.data(), q, 0, T(0), exp_coarse.data(), cpm,
                                  cpm * q, nb);
    flops += blas::gemm_flops(cpm, q, ml) * double(nb);
    // M2M at the finest level: children pairs (2Q) → parent (Q).
    blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::T, cpm, q, 2 * q, T(1),
                                  exp_fine.data(), cpm, 2 * cpm * q, m2m_op.data(), q, 0, T(0),
                                  exp_coarse.data(), cpm, cpm * q, nbl);
    flops += blas::gemm_flops(cpm, q, 2 * q) * double(nbl);
    // L2L at the same level: parent (Q) → children pairs (2Q), accumulate.
    blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::N, cpm, 2 * q, q, T(1),
                                  exp_coarse.data(), cpm, cpm * q, m2m_op.data(), q, 0, T(1),
                                  exp_fine.data(), cpm, 2 * cpm * q, nbl);
    flops += blas::gemm_flops(cpm, 2 * q, q) * double(nbl);
    // L2T: leaf locals (Q) → ML targets per box, accumulate.
    blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::N, cpm, ml, q, T(1), exp_coarse.data(),
                                  cpm, cpm * q, s2m_op.data(), q, 0, T(1), src.data() + 2, cp,
                                  cp * ml, nb);
    flops += blas::gemm_flops(cpm, ml, q) * double(nb);
  }
  return flops;
}

}  // namespace

double replay_batched_gemm(Trace& tr, const fmm::Params& prm, int g, fmm::Precision prec,
                           int reps) {
  return prec == fmm::Precision::Mixed ? replay_gemm_t<float>(tr, prm, g, reps)
                                       : replay_gemm_t<double>(tr, prm, g, reps);
}

// --- exec -------------------------------------------------------------------

double replay_empty_graph_us(int tasks, int lanes, int reps) {
  std::vector<double> us;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = now_ns();
    exec::TaskGraph graph(lanes);
    for (int t = 0; t < tasks; ++t) graph.submit("noop", {t % lanes, true, "bench"}, [] {});
    graph.run();
    us.push_back(double(now_ns() - t0) * 1e-3 / double(tasks));
  }
  return median(us);
}

// --- sim --------------------------------------------------------------------

namespace {

SimComparison compare(const sim::Schedule& chosen, const sim::Schedule& other, int g) {
  const auto arch = model::p100_nvlink(g);
  const auto res = chosen.simulate(arch);
  const auto report = obs::analyze(chosen, res, arch);
  SimComparison c;
  c.speedup = other.simulate(arch).total_seconds / res.total_seconds;
  c.a2a_critical_frac = report.critical_stage_seconds("a2a") / res.total_seconds;
  return c;
}

}  // namespace

SimComparison simulate_fmm_vs_baseline(const fmm::Params& prm, int g) {
  // The simulator prices the fp64 pipeline; it has no mixed-precision tier.
  const model::Workload w{prm.n, true, true};
  return compare(dist::fmmfft_schedule(prm, w, g), dist::baseline1d_schedule(prm.n, w, g), g);
}

SimComparison simulate_fft3d(index_t n0, index_t n1, index_t n2, int g, model::Decomp chosen,
                             model::GridShape grid) {
  const model::Workload w{n0 * n1 * n2, true, true};
  const model::Decomp other =
      chosen == model::Decomp::Slab ? model::Decomp::Pencil : model::Decomp::Slab;
  if (!grid.specified()) grid = model::default_grid3d(g, n0, n1, n2);
  return compare(dist::fft3d_schedule(n0, n1, n2, w, g, chosen, grid),
                 dist::fft3d_schedule(n0, n1, n2, w, g, other, grid), g);
}

}  // namespace perfbench
