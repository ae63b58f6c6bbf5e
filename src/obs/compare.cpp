#include "obs/compare.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/math.hpp"
#include "model/counts.hpp"
#include "obs/trace_writer.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::obs {

double ModelCheck::rel_dev() const {
  return std::fabs(measured - predicted) / std::max(std::fabs(predicted), 1.0);
}

bool ModelReport::all_ok() const {
  for (const auto& c : checks)
    if (!c.ok()) return false;
  return true;
}

std::string ModelReport::to_string() const {
  std::ostringstream os;
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %16s %16s %10s %9s  %s\n", "counter", "measured",
                "predicted", "rel dev", "tol", "ok");
  os << line;
  for (const auto& c : checks) {
    std::snprintf(line, sizeof line, "%-24s %16.6e %16.6e %10.2e %9.1e  %s\n", c.name.c_str(),
                  c.measured, c.predicted, c.rel_dev(), c.tolerance, c.ok() ? "yes" : "NO");
    os << line;
  }
  return os.str();
}

void ModelReport::write_json(std::ostream& os) const {
  JsonWriter jw(os);
  jw.begin_object();
  jw.key("all_ok");
  jw.value(all_ok());
  jw.key("checks");
  jw.begin_array();
  for (const auto& c : checks) {
    jw.begin_object();
    jw.kv("name", c.name);
    jw.kv("measured", c.measured);
    jw.kv("predicted", c.predicted);
    jw.kv("rel_dev", c.rel_dev());
    jw.kv("tolerance", c.tolerance);
    jw.key("ok");
    jw.value(c.ok());
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
}

namespace {

using Snapshot = std::map<std::string, TrafficTotals>;

// Totals over all ledger scopes with the given name prefix. Compute scopes
// carry no comm bytes, so their bytes_moved() is read + written.
TrafficTotals ledger_sum(const Snapshot& snap, const std::string& prefix) {
  TrafficTotals s;
  for (const auto& [name, t] : snap)
    if (name.compare(0, prefix.size(), prefix) == 0) s += t;
  return s;
}

constexpr double kExact = 1e-9;  // summation noise on counts that must agree

/// The checks both distributed FFT stages share, for `runs` transforms over
/// the complex grid `extents` (`eb` bytes per element) on g devices:
///  * the exchange payload — slab: every device ships all but its own slab
///    once, (G-1)/G·N elements in the one `slab_tag` exchange; pencil
///    (pr > 0): the same permutation factorizes into a row phase moving
///    (pc-1)/pc·N and a column phase moving (pr-1)/pr·N;
///  * the batched line FFTs' data passes: summed over devices, one
///    transform along each extent per line, each reading and writing
///    fft_passes full lines (the count Plan1D books). Predictable only for
///    pow2 extents (no Bluestein configs in the canonical set).
void check_exchange_and_passes(ModelReport& rep, const Snapshot& snap, const char* slab_tag,
                               const std::vector<index_t>& extents, index_t g, double eb,
                               double r, int pr, int pc) {
  double n = 1, passes = 0;
  bool pow2 = true;
  for (index_t e : extents) {
    n *= double(e);
    pow2 = pow2 && is_pow2(e);
    if (pow2) passes += double(fft_passes(ilog2_exact(e)));
  }
  if (pr > 0) {
    rep.checks.push_back({"traffic.a2a_row_payload", ledger_sum(snap, "comm.A2A-ROW").comm_bytes,
                          r * double(pc - 1) / double(pc) * n * eb, kExact});
    rep.checks.push_back({"traffic.a2a_col_payload", ledger_sum(snap, "comm.A2A-COL").comm_bytes,
                          r * double(pr - 1) / double(pr) * n * eb, kExact});
  } else {
    rep.checks.push_back({"traffic.a2a_payload", ledger_sum(snap, slab_tag).comm_bytes,
                          g > 1 ? r * double(g - 1) / double(g) * n * eb : 0.0, kExact});
  }
  if (pow2)
    rep.checks.push_back({"traffic.fft_bytes", ledger_sum(snap, "fft").bytes_moved(),
                          r * 2.0 * passes * n * eb, kExact});
}

}  // namespace

ModelReport compare_traffic_with_model(const fmm::Params& prm, int components, index_t g,
                                       double real_bytes, int runs, double trans_bytes,
                                       int pr, int pc) {
  const auto snap = TrafficLedger::global().snapshot();
  const double r = double(runs), gd = double(g);
  const double n = double(prm.n);
  // Translation-pipeline width (FMM stages, halo payloads); the shell
  // (A2A, FFT, POST output) stays at real_bytes.
  const double tb = trans_bytes > 0 ? trans_bytes : real_bytes;
  auto sum = [&](const std::string& prefix) { return ledger_sum(snap, prefix); };

  double flops = 0, mem_scalars = 0, launches = 0;
  for (const auto& st : model::exact_fmm_counts(prm, components, g)) {
    flops += st.flops;
    mem_scalars += st.mem_scalars;
    launches += double(st.launches);
  }

  ModelReport rep;
  check_exchange_and_passes(rep, snap, "comm.A2A-2D", {prm.p, prm.m()}, g, 2.0 * real_bytes, r,
                            pr, pc);
  // Each of M/G size-P + P/G size-M transforms per device; summed over
  // devices (or the G = 1 plan) that is exactly 5·N·log2(N).
  rep.checks.push_back({"traffic.fft_flops", sum("fft").flops, r * 5.0 * n * std::log2(n),
                        kExact});

  const auto exact = model::exact_fmm_comm(prm, components, g);
  const double comm_s = sum("comm.COMM-S").comm_bytes;
  const double comm_mb = sum("comm.COMM-MB").comm_bytes;
  const double comm_ml = sum("comm.COMM-M").comm_bytes - comm_mb;
  rep.checks.push_back({"traffic.comm_s", comm_s, r * gd * exact.s_halo * tb, kExact});
  rep.checks.push_back({"traffic.comm_ml", comm_ml, r * gd * exact.m_halo * tb, kExact});
  rep.checks.push_back({"traffic.comm_mb", comm_mb, r * gd * exact.m_base * tb, kExact});

  // The §5.2 closed forms track the same payloads up to two documented
  // conventions: the source halo ships the p = 0 slice too (factor
  // P/(P-1)) and the allgather's local slab is free (factor (G-1)/G).
  const auto paper = model::paper_fmm_comm(prm, components, g);
  rep.checks.push_back({"paper.s_halo", comm_s, r * gd * paper.s_halo * tb,
                        1.0 / double(prm.p - 1) + 1e-6});
  rep.checks.push_back({"paper.m_halo", comm_ml, r * gd * paper.m_halo * tb, kExact});
  rep.checks.push_back({"paper.m_base", comm_mb, r * gd * paper.m_base * tb,
                        g > 1 ? 1.0 / gd + 1e-6 : 0.0});

  // FMM kernel traffic: the fmm.* scopes are compute-only (halo copies go
  // to halo.cyclic), so read+written matches the model's mem_scalars, and
  // each launch records its scope exactly once.
  const TrafficTotals fmm = sum("fmm.");
  rep.checks.push_back({"traffic.fmm_bytes", fmm.bytes_moved(), r * gd * mem_scalars * tb, kExact});
  rep.checks.push_back({"traffic.fmm_flops", fmm.flops, r * gd * flops, kExact});
  rep.checks.push_back({"traffic.fmm_launches", fmm.calls, r * gd * launches, 0.0});

  // POST sweep (fused shape): reads the C-component T tensor once at the
  // translation width, writes the complex FFT input once at the shell
  // width (identical when the widths agree).
  rep.checks.push_back({"traffic.post_bytes", sum("post").bytes_moved(),
                        r * n * (double(components) * tb + 2.0 * real_bytes), kExact});
  return rep;
}

ModelReport compare_fft3d_traffic(index_t n0, index_t n1, index_t n2, index_t g,
                                  double real_bytes, int runs, int pr, int pc) {
  const auto snap = TrafficLedger::global().snapshot();
  const double r = double(runs);
  const double n = double(n0) * double(n1) * double(n2);
  const double eb = 2.0 * real_bytes;  // complex element

  ModelReport rep;
  check_exchange_and_passes(rep, snap, "comm.A2A-3D", {n0, n1, n2}, g, eb, r, pr, pc);
  if (pr > 0) {
    // Pencil: the ledger's fused pack/unpack bytes — each phase reads every
    // element once and writes it once.
    rep.checks.push_back({"traffic.a2a_row_bytes", ledger_sum(snap, "a2a.row.").bytes_moved(),
                          r * 2.0 * n * eb, kExact});
    rep.checks.push_back({"traffic.a2a_col_bytes", ledger_sum(snap, "a2a.col.").bytes_moved(),
                          r * 2.0 * n * eb, kExact});
  } else {
    // Slab: the local i0↔i1 reorientation pass between the line phases.
    rep.checks.push_back({"traffic.transpose_bytes", ledger_sum(snap, "transpose").bytes_moved(),
                          r * 2.0 * n * eb, kExact});
  }
  return rep;
}

}  // namespace fmmfft::obs
