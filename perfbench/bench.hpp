// Shared pieces of the benchmark driver: the in-memory span tracer, sample
// statistics and the layer replays (replay.cpp).
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "fmm/params.hpp"
#include "fmm/precision.hpp"
#include "model/tuning.hpp"

namespace perfbench {

using cplx = std::complex<double>;
using fmmfft::index_t;

inline std::uint64_t now_ns() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// CPU time of the whole process (every thread). Unlike wall time it leaves
/// out the time the process waits for a CPU, in the guest's run queue or
/// while the hypervisor runs another guest on its vCPU (steal time).
inline std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::uint64_t(ts.tv_sec) * 1000000000u + std::uint64_t(ts.tv_nsec);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Span tracer. Spans live in memory and are written once at the end. A
// span's parent is the innermost span open when it started; spans of one
// transform (or one replay repetition) share a transform id.

struct Span {
  std::string name;
  std::uint64_t start_ns = 0, end_ns = 0;
  int parent = -1;
  int transform = -1;
  double seconds() const { return double(end_ns - start_ns) * 1e-9; }
};

class Trace {
 public:
  int open(std::string name, int transform) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent, transform});
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[std::size_t(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// A fresh transform id (one per timed transform or replay repetition).
  int next_transform() { return next_id_++; }

  /// Span duration minus the time its direct children cover.
  std::vector<double> self_seconds() const;
  /// Per transform id, the summed self time of spans named in `names`; the
  /// median over the transform ids that have any such span (0 if none).
  double median_self_any(const std::vector<std::string>& names) const;
  double median_self(const std::string& name) const { return median_self_any({name}); }
  /// Same, over the spans whose name starts with `prefix`.
  double median_self_prefix(const std::string& prefix) const;
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int next_id_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Trace& t, std::string name, int transform)
      : t_(t), id_(t.open(std::move(name), transform)) {}
  ~ScopedSpan() { t_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace& t_;
  int id_;
};

// ---------------------------------------------------------------------------
// Layer replays: public calls of each layer at one workload's shapes, each
// wrapped in a benchmark span. Each of the `reps` repetitions takes a fresh
// transform id from the trace it records into.

/// What the FMM replay counted, from the engines' own stage stats (one
/// repetition, summed over devices).
struct FmmReplayCounts {
  double s2t_flops = 0, s2t_bytes = 0;
  double m2l_flops = 0, m2l_bytes = 0;
};

/// The FMM pipeline of Algorithm 1 on `g` engines at plan `prm`, loaded from
/// `input` (length prm.n), in the order the serial drivers run it: engine
/// stages under `fmm.*` spans, halo fills and the base allgather under
/// `dist.halo` / `dist.allgather`, the slab load under `core.load`.
FmmReplayCounts replay_fmm(Trace& tr, const fmmfft::fmm::Params& prm, int g,
                           fmmfft::fmm::Precision prec, const cplx* input, int reps);

/// The M×P 2D FFT stage of the FMM-FFT on `g` devices (slab layout): row
/// FFTs and column FFTs under `fft.batched`, the Π_{M,P} exchange under
/// `common.transpose` (g == 1) or `dist.a2a` (g > 1), the write-back copy
/// under `core.copy`. With g == 1 the exchange also runs once through the
/// one-device collective under `dist.a2a`, off the replayed path. Returns
/// the points transformed per repetition.
double replay_fft2d(Trace& tr, index_t m, index_t p, int g, const cplx* input, int reps);

/// The slab-decomposed 3D FFT of dist::Dist3dFft on `g` devices: staging
/// copies under `dist.stage`, the three batched FFT phases under
/// `fft.batched`, the per-plane reorientation under `common.transpose`, the
/// one G-wide exchange under `dist.a2a`. Fills `device_seconds` with the
/// per-device FFT + transpose seconds of the last repetition. Returns the
/// points transformed per repetition.
double replay_fft3d_slab(Trace& tr, index_t n0, index_t n1, index_t n2, int g, const cplx* input,
                         int reps, std::vector<double>& device_seconds);

/// One out-of-place transpose_blocked sweep over the workload's transpose
/// shape (`count` rows×cols matrices) under `common.transpose_sweep`.
void replay_transpose(Trace& tr, index_t rows, index_t cols, index_t count, const cplx* input,
                      int reps);

/// The shared-operator batched GEMMs (S2M, M2M, L2L, L2T shapes, stride_b
/// = 0) at plan `prm` for one device of `g`, in the engine's real type,
/// under `blas.gemm`. Returns the flops per repetition.
double replay_batched_gemm(Trace& tr, const fmmfft::fmm::Params& prm, int g,
                           fmmfft::fmm::Precision prec, int reps);

/// Per-task cost of an empty exec::TaskGraph with `tasks` no-op tasks over
/// `lanes` lanes, in microseconds (median of `reps`).
double replay_empty_graph_us(int tasks, int lanes, int reps);

/// Simulated P100/NVLink comparison from the §5 schedules (sim + dist +
/// obs::analyze). FMM workloads compare fmmfft_schedule against
/// baseline1d_schedule; the 3D workload compares the chosen decomposition
/// against the other one.
struct SimComparison {
  double speedup = 0;            ///< comparator time ÷ chosen-path time
  double a2a_critical_frac = 0;  ///< a2a seconds on the critical path ÷ total
};
SimComparison simulate_fmm_vs_baseline(const fmmfft::fmm::Params& prm, int g);
SimComparison simulate_fft3d(index_t n0, index_t n1, index_t n2, int g,
                             fmmfft::model::Decomp chosen, fmmfft::model::GridShape grid);

}  // namespace perfbench
