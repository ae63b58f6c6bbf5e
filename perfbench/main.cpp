// Benchmark driver for the FMM-FFT library: three transform workloads, an
// output gate on every transform, end-to-end metrics from an untraced run
// and a per-layer breakdown from a separate traced run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--corrupt <k>] [--spans <path>]
//
// Each workload is a closed loop: one caller runs back-to-back execute()
// calls on a warm plan, on the process-wide pool (FMMFFT_NUM_THREADS); the
// untraced run sets up a fresh plan every few transforms.
// The plan comes from the library's own fmm::suggest_params /
// model::choose_decomp for the requested size, device count, tolerance and
// precision. Prints every metric as "name value unit" and, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when an output fails the gate, 2 on a usage or runtime error.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/threadpool.hpp"
#include "core/fmmfft.hpp"
#include "core/reference.hpp"
#include "dist/dfft.hpp"
#include "dist/dfft3d.hpp"
#include "dist/dfmmfft.hpp"
#include "exec/executor.hpp"
#include "fft/fft.hpp"
#include "fft/plan3d.hpp"
#include "fmm/accuracy.hpp"
#include "model/arch.hpp"
#include "model/counts.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace {

using namespace fmmfft;
using namespace perfbench;

constexpr std::size_t kSetupPlans = 5;  // minimum fresh plans per untraced run; setup_s is their median
constexpr int kRoundTransforms = 5;     // timed transforms per fresh plan
constexpr int kRefFmaSteps = 3000000;   // compute part of the reference job
// The tail is a fixed 75th percentile, and every run takes at least 40
// samples so that 10 lie above it. The highest percentile with 10 samples
// above it climbs with the sample count and tracks a shared host's slow
// episodes more than the program: over ten seeds on a shared 4-vCPU VM its
// run-to-run quartile spread reached 28%.
constexpr double kTailQuantile = 0.75;
constexpr std::size_t kMinSamples = 40;
constexpr int kReplayReps = 3;  // repetitions of each layer replay
constexpr int kModePairs = 3;   // Serial/Async and layout A/B pairs
constexpr int kEmptyGraphTasks = 64;  // exec.task_us graph size when the workload runs no graph

// --- Workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  bool fft3d = false;
  int g = 1;
  fmm::Precision prec = fmm::Precision::Fp64;
  double tol = 1e-12;  ///< gate tolerance: the requested eps (FMM) or 1e-12 (3D)
  index_t n = 0, n0 = 0, n1 = 0, n2 = 0;
  /// The FMM plan: the transform's own for the 1D workloads; for the 3D one,
  /// the fp64 plan at the same N and G that the off-path FMM layers replay.
  fmm::Params prm;
};

Workload make_workload(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  const index_t n1d = index_t(1) << (tiny ? 14 : 22);
  if (name == "fmm1d_n22_g1_fp64") {
    w.n = n1d;
  } else if (name == "fmm1d_n22_g4_mixed") {
    w.n = n1d;
    w.g = 4;
    w.prec = fmm::Precision::Mixed;
    w.tol = 1e-6;
  } else if (name == "fft3d_256x128x128_g4") {
    w.fft3d = true;
    w.g = 4;
    w.n0 = tiny ? 32 : 256;
    w.n1 = tiny ? 32 : 128;
    w.n2 = tiny ? 32 : 128;
    w.n = w.n0 * w.n1 * w.n2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.prm = fmm::suggest_params(w.n, w.tol, w.g, w.prec);
  return w;
}

// --- Plans under test -------------------------------------------------------

/// FMM stage counters of the most recent execute(), summed over devices.
struct FmmCounters {
  double flops = 0, bytes = 0, launches = 0;
  std::vector<double> device_seconds;
};

class Plan {
 public:
  virtual ~Plan() = default;
  virtual void execute(const cplx* in, cplx* out) = 0;
  virtual sim::Fabric* fabric() { return nullptr; }
  virtual FmmCounters fmm_counters() const { return {}; }
  /// The layout the plan chose for its exchange (Slab when it has none).
  virtual model::Decomp decomp() const { return model::Decomp::Slab; }
};

FmmCounters count_stages(const std::vector<const std::vector<fmm::StageStats>*>& per_device) {
  FmmCounters c;
  for (const auto* stats : per_device) {
    double sec = 0;
    for (const auto& st : *stats) {
      c.flops += st.flops;
      c.bytes += st.mem_bytes;
      if (st.kernel != fmm::KernelClass::Copy) c.launches += double(st.launches);
      sec += st.seconds;
    }
    c.device_seconds.push_back(sec);
  }
  return c;
}

class FmmPlan final : public Plan {
 public:
  explicit FmmPlan(const Workload& w) : p_(w.prm, /*fuse_post=*/true, w.prec) {}
  void execute(const cplx* in, cplx* out) override { p_.execute(in, out); }
  FmmCounters fmm_counters() const override { return count_stages({&p_.profile().fmm_stages}); }

 private:
  core::FmmFft<cplx> p_;
};

class DistFmmPlan final : public Plan {
 public:
  DistFmmPlan(const Workload& w, fmm::Precision prec) : p_(w.prm, w.g, prec) {}
  void execute(const cplx* in, cplx* out) override { p_.execute(in, out); }
  sim::Fabric* fabric() override { return &p_.fabric(); }
  FmmCounters fmm_counters() const override {
    std::vector<const std::vector<fmm::StageStats>*> per_device;
    for (int r = 0; r < p_.num_devices(); ++r) per_device.push_back(&p_.engine_stats(r));
    return count_stages(per_device);
  }
  model::Decomp decomp() const override { return p_.fft2d().decomp(); }

 private:
  dist::DistFmmFft<cplx> p_;
};

class Fft3dPlan final : public Plan {
 public:
  Fft3dPlan(const Workload& w, model::Decomp d) : p_(w.n0, w.n1, w.n2, w.g, d) {}
  void execute(const cplx* in, cplx* out) override { p_.execute(in, out); }
  sim::Fabric* fabric() override { return &p_.fabric(); }
  model::Decomp decomp() const override { return p_.decomp(); }
  const dist::Dist3dFft<double>& impl() const { return p_; }

 private:
  dist::Dist3dFft<double> p_;
};

std::unique_ptr<Plan> make_plan(const Workload& w) {
  if (w.fft3d) return std::make_unique<Fft3dPlan>(w, model::Decomp::Auto);
  if (w.g == 1) return std::make_unique<FmmPlan>(w);
  return std::make_unique<DistFmmPlan>(w, w.prec);
}

// --- Inputs and references -------------------------------------------------

/// Uniform random complex values in [-1, 1)² from a splitmix64 stream.
std::vector<cplx> make_input(std::uint64_t seed, index_t n) {
  std::uint64_t s = seed;
  auto next = [&s] {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return double(z >> 11) * 0x1.0p-52 - 1.0;
  };
  std::vector<cplx> x(std::size_t(n), cplx(0));
  for (auto& v : x) {
    const double re = next();
    v = cplx(re, next());
  }
  return x;
}

/// The workload's output computed independently of the plan under test:
/// core::exact_fft for the 1D transforms. For the 3D transform, one
/// single-device fft::Plan3D over the input reoriented to i2-fastest: its
/// output lands directly in Dist3dFft's reversed order y[i2 + n2·(i1 +
/// n1·i0)], and its axis passes run in the opposite order (i2, i1, i0), so
/// its rounding is independent of the distributed path's.
std::vector<cplx> reference(const Workload& w, const std::vector<cplx>& x) {
  std::vector<cplx> y(x.size());
  if (!w.fft3d) {
    core::exact_fft(w.n, x.data(), y.data());
    return y;
  }
  for (index_t i2 = 0; i2 < w.n2; ++i2)
    for (index_t i1 = 0; i1 < w.n1; ++i1)
      for (index_t i0 = 0; i0 < w.n0; ++i0)
        y[std::size_t(i2 + w.n2 * (i1 + w.n1 * i0))] = x[std::size_t(i0 + w.n0 * (i1 + w.n1 * i2))];
  fft::Plan3D<double>(w.n2, w.n1, w.n0).execute(y.data(), fft::Direction::Forward);
  return y;
}

double rel_l2(const cplx* y, const cplx* ref, std::size_t n) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += std::norm(y[i] - ref[i]);
    den += std::norm(ref[i]);
  }
  return std::sqrt(num / den);
}

// --- Output gate ------------------------------------------------------------

/// Checks every transform output outside the timed region. The first output
/// of each plan is compared with the independent reference (relative l2
/// error within the workload's tolerance); every later output of the plan
/// must match that verified output byte for byte, since the library
/// promises run-to-run bit-identity. `corrupt_at` (>= 0) damages a copy of
/// that attempt's output before checking, to prove the gate catches it.
class Gate {
 public:
  Gate(const std::vector<cplx>& ref, double tol, long corrupt_at)
      : ref_(ref), tol_(tol), corrupt_at_(corrupt_at) {}

  void first(const cplx* out) {
    const cplx* y = observe(out);
    const double err = rel_l2(y, ref_.data(), ref_.size());
    max_err_ = std::max(max_err_, std::isfinite(err) ? err : INFINITY);
    if (!(err <= tol_)) {
      ++failed_;
      return;
    }
    golden_.assign(y, y + ref_.size());
  }
  void repeat(const cplx* out) {
    const cplx* y = observe(out);
    if (golden_.empty() || std::memcmp(y, golden_.data(), sizeof(cplx) * golden_.size()) != 0)
      ++failed_;
  }
  /// An output of a different algorithm for the same transform: within
  /// `tol` of `ref` (which may differ from the gate's own reference).
  double against(const cplx* out, const std::vector<cplx>& ref, double tol) {
    const cplx* y = observe(out);
    const double err = rel_l2(y, ref.data(), ref.size());
    if (!(err <= tol)) ++failed_;
    return err;
  }
  void exception(const std::exception& e) {
    std::fprintf(stderr, "perfbench: transform threw: %s\n", e.what());
    ++attempted_;
    ++failed_;
  }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  double max_error() const { return max_err_; }

 private:
  const cplx* observe(const cplx* out) {
    if (attempted_++ != corrupt_at_) return out;
    corrupted_.assign(out, out + ref_.size());
    corrupted_[corrupted_.size() / 2] += cplx(1.0, 0.0);
    return corrupted_.data();
  }

  const std::vector<cplx>& ref_;
  double tol_;
  long corrupt_at_;
  long attempted_ = 0, failed_ = 0;
  double max_err_ = 0;
  std::vector<cplx> golden_, corrupted_;
};

// --- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void info(const std::string& key, const std::string& json_value) {
    info_ += (info_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json_value;
  }
  void print(bool correct, long attempted, long failed) const {
    for (const auto& m : metrics_)
      std::printf("%-28s %-14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("{\"info\": {%s}}\n", info_.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::string info_;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
std::string str(const std::string& s) { return "\"" + s + "\""; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- Runs -------------------------------------------------------------------

struct Ctx {
  Workload w;
  std::vector<cplx> x, ref, out;
  Gate gate;
  Report report;
  Ctx(Workload w_, std::uint64_t seed, long corrupt_at)
      : w(std::move(w_)),
        x(make_input(seed, w.n)),
        ref(reference(w, x)),
        out(x.size()),
        gate(ref, w.tol, corrupt_at) {}
};

double seconds_since(std::uint64_t t0) { return double(now_ns() - t0) * 1e-9; }

double cpu_seconds_since(std::uint64_t t0) { return double(cpu_ns() - t0) * 1e-9; }

/// A fresh plan, timed from constructor start to the end of its first
/// execute() (time to first result, lazy set-up included) in process CPU
/// seconds, appended to `setup_s`. Returns the plan, warm.
std::unique_ptr<Plan> set_up(Ctx& c, std::vector<double>& setup_s) {
  const std::uint64_t t0 = cpu_ns();
  auto plan = make_plan(c.w);
  plan->execute(c.x.data(), c.out.data());
  setup_s.push_back(cpu_seconds_since(t0));
  c.gate.first(c.out.data());
  if (auto* f = plan->fabric()) f->reset();
  return plan;
}

/// One gated execute() of a warm plan; returns its wall seconds, or NaN
/// when it threw (counted as failed). `cpu_s`, if given, gets its process
/// CPU seconds.
double timed_execute(Ctx& c, Plan& plan, double* cpu_s = nullptr) {
  try {
    const std::uint64_t c0 = cpu_ns(), t0 = now_ns();
    plan.execute(c.x.data(), c.out.data());
    const double s = seconds_since(t0);
    if (cpu_s) *cpu_s = cpu_seconds_since(c0);
    c.gate.repeat(c.out.data());
    return s;
  } catch (const std::exception& e) {
    c.gate.exception(e);
    return NAN;
  }
}

/// The reference job, the unit transform times are counted in. A memory
/// part, the triad out = x + 0.5 ref over the workload's N complex doubles
/// (its input, reference and output buffers: two arrays read, one
/// written), and a compute part, kRefFmaSteps rounds of multiply-adds on 32
/// accumulators held in registers. At N = 2^22 the two parts take about the
/// same time. Returns the job's process CPU seconds. The gate keeps its own
/// copy of the verified output, so overwriting `out` is safe.
volatile double g_ref_sink;
double reference_job(Ctx& c) {
  const double* a = reinterpret_cast<const double*>(c.x.data());
  const double* b = reinterpret_cast<const double*>(c.ref.data());
  double* y = reinterpret_cast<double*>(c.out.data());
  const std::size_t m = 2 * c.out.size();
  const std::uint64_t t0 = cpu_ns();
  for (std::size_t i = 0; i < m; ++i) y[i] = a[i] + 0.5 * b[i];
  asm volatile("" : : "r"(y) : "memory");
  double acc[32];
  for (int j = 0; j < 32; ++j) acc[j] = y[std::size_t(j) % m];
  for (int k = 0; k < kRefFmaSteps; ++k)
    for (double& v : acc) v = v * 0.999999 + 1e-6;
  double sum = 0;
  for (double v : acc) sum += v;
  g_ref_sink = sum;
  return cpu_seconds_since(t0);
}

double quantile(std::vector<double> v, double q) {  // nearest rank
  std::sort(v.begin(), v.end());
  return v[std::size_t(std::ceil(q * double(v.size()))) - 1];
}

void untraced_run(Ctx& c, double seconds) {
  // Rounds: each sets up a fresh plan (one setup_s sample), then times
  // kRoundTransforms warm transforms on it. The medians so span several
  // plans' allocations, whose cache luck moved one plan's median by up to
  // 12% against the next in the same process.
  //
  // Each timed transform is followed by one reference job, and its time is
  // reported in reference jobs: transform CPU seconds / the next job's CPU
  // seconds. CPU time leaves out the time a shared host keeps the process
  // off a CPU; the ratio cancels most of the drift of the host's memory and
  // core speed, which move the transform and the job alike. Wall and CPU
  // seconds go to the info line.
  std::vector<double> setup_s, wall, cpu, ref_s, ratio;
  std::unique_ptr<Plan> plan;
  const std::uint64_t t_end = now_ns() + std::uint64_t(seconds * 1e9);
  while (setup_s.size() < kSetupPlans || now_ns() < t_end ||
         (ratio.size() < kMinSamples && c.gate.failed() == 0)) {
    plan.reset();  // one plan alive at a time
    plan = set_up(c, setup_s);
    reference_job(c);
    for (int k = 0; k < kRoundTransforms; ++k) {
      double cpu_s = NAN;
      const double s = timed_execute(c, *plan, &cpu_s);
      if (auto* f = plan->fabric()) f->reset();
      const double job = reference_job(c);
      if (!std::isfinite(s)) continue;
      wall.push_back(s);
      cpu.push_back(cpu_s);
      ref_s.push_back(job);
      ratio.push_back(cpu_s / job);
    }
  }
  // A failed run stops at the deadline and reports what it has (it exits 1).
  if (ratio.empty() || (ratio.size() < kMinSamples && c.gate.failed() == 0))
    throw std::runtime_error("too few successful transforms to report a tail");

  // One more transform with the traffic ledger on, for the computed bytes.
  obs::TrafficLedger::global().reset();
  obs::enable_traffic(true);
  timed_execute(c, *plan);
  obs::enable_traffic(false);
  const double words = obs::TrafficLedger::global().total(true).bytes_moved();

  const double n = double(ratio.size()), mpoints = double(c.w.n) / 1e6;
  double ratio_sum = 0, wall_sum = 0;
  for (double q : ratio) ratio_sum += q;
  for (double s : wall) wall_sum += s;

  auto& r = c.report;
  r.add("transform_refs_p50", median(ratio), "ref");
  r.add("transform_refs_tail", quantile(ratio, kTailQuantile), "ref");
  r.add("mpoints_per_ref", mpoints * n / ratio_sum, "Mpoint/ref");
  r.add("setup_s", median(setup_s), "s");
  r.add("rel_l2_error", c.gate.max_error(), "1");
  r.add("words_mb", words / 1e6, "MB");
  r.add("peak_rss_mib", peak_rss_mib(), "MiB");
  const double attempted = double(c.gate.attempted());
  r.add("ok_frac", (attempted - double(c.gate.failed())) / attempted, "1");
  r.info("samples", num(n));
  r.info("tail_percentile", num(100.0 * kTailQuantile));
  r.info("setup_plans", num(double(setup_s.size())));
  r.info("wall_s_p50", num(median(wall)));
  r.info("wall_s_tail", num(quantile(wall, kTailQuantile)));
  r.info("wall_mpoints_per_s", num(mpoints * n / wall_sum));
  r.info("cpu_s_p50", num(median(cpu)));
  r.info("ref_cpu_s_p50", num(median(ref_s)));
  r.info("words_mb_source", str("computed: traffic ledger reads + writes + fabric payload"));
}

/// Program counters of one traced transform.
struct TracedCounters {
  double post_s = 0;
  FmmCounters fmm;
  std::map<std::string, double> comm_bytes;  ///< fabric payload per tag family
  double comm_msgs = 0;
  double tasks = 0, graphs = 0;
};

/// Fabric tags folded into the families the metrics report: every
/// COMM-M<level> multipole halo counts under COMM-M.
std::string tag_family(const std::string& tag) {
  if (tag.rfind("COMM-M", 0) == 0 && tag != "COMM-MB") return "COMM-M";
  return tag;
}

/// Seconds of the program's own "POST" spans since the recorder was cleared.
double recorded_post_seconds() {
  double s = 0;
  for (const auto& ev : obs::Recorder::global().snapshot())
    if (std::strcmp(ev.name, "POST") == 0) s += double(ev.end_ns - ev.start_ns) * 1e-9;
  return s;
}

/// One transform with the program's tracing, metrics and traffic ledger on
/// and a benchmark span around it.
double traced_execute(Ctx& c, Plan& plan, Trace& tr, TracedCounters& out) {
  obs::reset();
  obs::enable();
  obs::enable_traffic(true);
  double s = 0;
  {
    ScopedSpan span(tr, "transform", tr.next_transform());
    const std::uint64_t t0 = now_ns();
    plan.execute(c.x.data(), c.out.data());
    s = seconds_since(t0);
  }
  obs::disable();
  c.gate.repeat(c.out.data());
  out.post_s = recorded_post_seconds();
  out.fmm = plan.fmm_counters();
  const auto counters = obs::Metrics::global().counters_snapshot();
  auto counter = [&](const char* k) {
    const auto it = counters.find(k);
    return it == counters.end() ? 0.0 : it->second;
  };
  out.tasks = counter("exec.tasks");
  out.graphs = counter("exec.graphs");
  out.comm_bytes.clear();
  out.comm_msgs = 0;
  if (auto* f = plan.fabric()) {
    for (const auto& t : f->transfers()) out.comm_bytes[tag_family(t.tag)] += t.bytes;
    out.comm_msgs = double(f->transfers().size());
    f->reset();
  }
  return s;
}

/// model: time of the layout the plan chose ÷ time of the layout it
/// rejected (the 3D transform itself, or the M×P 2D FFT stage of the FMM
/// workloads); 1 when the other layout is infeasible at this shape.
double decomp_regret(Ctx& c, Plan& plan) {
  const Workload& w = c.w;
  const model::Decomp chosen = plan.decomp();
  const model::Decomp other =
      chosen == model::Decomp::Slab ? model::Decomp::Pencil : model::Decomp::Slab;
  std::vector<double> t_chosen, t_other;
  try {
    if (w.fft3d) {
      Fft3dPlan alt(w, other);
      alt.execute(c.x.data(), c.out.data());
      c.gate.repeat(c.out.data());
      for (int k = 0; k < kModePairs; ++k) {
        t_chosen.push_back(timed_execute(c, plan));
        t_other.push_back(timed_execute(c, alt));
      }
    } else {
      const index_t m = w.prm.m(), p = w.prm.p;
      dist::Dist2dFft<double> a(m, p, w.g, chosen), b(m, p, w.g, other);
      a.execute(c.x.data(), c.out.data());
      b.execute(c.x.data(), c.out.data());
      for (int k = 0; k < kModePairs; ++k) {
        std::uint64_t t0 = now_ns();
        a.execute(c.x.data(), c.out.data());
        t_chosen.push_back(seconds_since(t0));
        t0 = now_ns();
        b.execute(c.x.data(), c.out.data());
        t_other.push_back(seconds_since(t0));
      }
    }
  } catch (const Error& e) {
    c.report.info("decomp_regret_note", str(std::string("other layout infeasible: ") + e.what()));
    return 1.0;
  }
  return median(t_chosen) / median(t_other);
}

void traced_run(Ctx& c, double seconds, const std::string& spans_path) {
  const Workload& w = c.w;
  std::vector<double> setup_s;
  auto plan = set_up(c, setup_s);
  Trace tr;

  // Alternate untraced and traced transforms, so the tracing overhead is a
  // ratio of medians taken in the same process over the same period. A
  // transform that throws fails the run; the traced one propagates.
  std::vector<double> plain, traced, post_s, skew;
  TracedCounters tc;
  double tasks = 0, graphs = 0;
  const std::uint64_t t_end = now_ns() + std::uint64_t(seconds * 1e9);
  while (now_ns() < t_end || (plain.size() < 3 && c.gate.failed() == 0)) {
    if (const double s = timed_execute(c, *plan); std::isfinite(s)) plain.push_back(s);
    if (auto* f = plan->fabric()) f->reset();
    traced.push_back(traced_execute(c, *plan, tr, tc));
    post_s.push_back(tc.post_s);
    tasks += tc.tasks;
    graphs += tc.graphs;
    const auto& dev = tc.fmm.device_seconds;
    if (!dev.empty()) {
      double mean = 0;
      for (double d : dev) mean += d / double(dev.size());
      skew.push_back(*std::max_element(dev.begin(), dev.end()) / mean);
    }
  }
  const double p50 = median(plain);

  // Same-run roofline at the benchmark's pool width: arrays of 2^23 doubles
  // (64 MiB each), the size of one workload array.
  const int width = ThreadPool::global().workers();
  const auto sweep = obs::calibrate_roofline_sweep(index_t(1) << 23, 3);
  obs::MachineRoofline roof = sweep.back();
  for (const auto& s : sweep)
    if (s.threads == width) roof = s;

  // Layer replays at the workload's shapes, on the workload's input.
  const fmm::Params& prm = w.prm;
  const fmm::Precision fmm_prec = w.fft3d ? fmm::Precision::Fp64 : w.prec;
  const auto fc = replay_fmm(tr, prm, w.g, fmm_prec, c.x.data(), kReplayReps);
  const double gemm_flops = replay_batched_gemm(tr, prm, w.g, fmm_prec, kReplayReps);
  double fft_points = 0;
  std::vector<double> device_s;
  if (w.fft3d) {
    fft_points = replay_fft3d_slab(tr, w.n0, w.n1, w.n2, w.g, c.x.data(), kReplayReps, device_s);
    replay_transpose(tr, w.n0, w.n1, w.n2, c.x.data(), kReplayReps);
  } else {
    fft_points = replay_fft2d(tr, prm.m(), prm.p, w.g, c.x.data(), kReplayReps);
    replay_transpose(tr, prm.p, prm.m(), 1, c.x.data(), kReplayReps);
  }
  if (w.fft3d) {
    // The 3D transform runs no FMM, so POST is timed on an FMM-FFT at the
    // same N and G (off this workload's path, like the FMM replay above).
    DistFmmPlan fplan(w, fmm::Precision::Fp64);
    std::vector<cplx> y(c.x.size());
    post_s.clear();
    for (int k = 0; k <= kReplayReps; ++k) {
      obs::reset();
      obs::enable_tracing(true);
      fplan.execute(c.x.data(), y.data());
      obs::disable();
      if (k > 0) post_s.push_back(recorded_post_seconds());
    }
    if (!device_s.empty()) {
      double mean = 0;
      for (double d : device_s) mean += d / double(device_s.size());
      skew = {*std::max_element(device_s.begin(), device_s.end()) / mean};
    }
  }

  // The paper's comparator: the three-transpose distributed 1D FFT at the
  // same N and G, checked against the exact 1D transform.
  std::vector<cplx> ref1d = c.ref;
  if (w.fft3d) core::exact_fft(w.n, c.x.data(), ref1d.data());
  std::vector<double> base_s;
  double base_comm = 0;
  {
    dist::DistFft1d<double> base(w.n, w.g);
    for (int k = 0; k <= kModePairs; ++k) {
      base.fabric().reset();
      const std::uint64_t t0 = now_ns();
      base.execute(c.x.data(), c.out.data());
      if (k > 0) base_s.push_back(seconds_since(t0));
      base_comm = base.fabric().total_bytes();
      c.gate.against(c.out.data(), ref1d, 1e-12);
    }
  }

  // exec: the driver's own Serial vs Async choice, and the per-task cost of
  // an empty graph at the workload's task and lane counts.
  std::vector<double> ser, asy;
  for (int k = 0; k < kModePairs; ++k) {
    {
      exec::ScopedMode m(exec::Mode::Serial);
      ser.push_back(timed_execute(c, *plan));
    }
    {
      exec::ScopedMode m(exec::Mode::Async);
      asy.push_back(timed_execute(c, *plan));
    }
    if (auto* f = plan->fabric()) f->reset();
  }
  const int lanes = exec::DeviceLanes(w.g).count();
  const int graph_tasks = graphs > 0 ? int(tasks / graphs) : kEmptyGraphTasks;
  const double task_us = replay_empty_graph_us(graph_tasks, lanes, 5);

  const model::Decomp chosen = plan->decomp();
  const double regret = decomp_regret(c, *plan);

  // model: the §5 FMM prediction on this host, from the rates measured above.
  const double fmm_s = tr.median_self_prefix("fmm.");
  const double gemm_rate = gemm_flops / tr.median_self("blas.gemm");
  const auto host = model::native_host(w.g, gemm_rate, gemm_rate, roof.triad_bps);
  const model::Workload mw{w.n, true, fmm_prec == fmm::Precision::Fp64};
  const double fmm_pred = model::fmm_stage_seconds(prm, mw, host, false) * w.g;

  const SimComparison simc =
      w.fft3d ? simulate_fft3d(w.n0, w.n1, w.n2, w.g, chosen,
                               static_cast<Fft3dPlan&>(*plan).impl().decision().grid)
              : simulate_fmm_vs_baseline(prm, w.g);

  // Roofline fractions: roof time (flops at the FMA anchor or bytes at the
  // triad anchor, whichever binds) over measured time. fp32 stages get twice
  // the fp64 FMA rate (same vector width, twice the lanes). Bytes are the
  // engines' computed tensor traffic.
  const double fma = roof.fma_flops * (fmm_prec == fmm::Precision::Mixed ? 2.0 : 1.0);
  auto roof_frac = [&](double flops, double bytes, double s) {
    return std::max(flops / fma, bytes / roof.triad_bps) / s;
  };
  const double s2t_s = tr.median_self("fmm.s2t"), m2l_s = tr.median_self("fmm.m2l");
  const double fft_s = tr.median_self("fft.batched");
  const double a2a_s = tr.median_self("dist.a2a");
  const double halo_s = tr.median_self_any({"dist.halo", "dist.allgather"});
  const double post = median(post_s);
  const double elem_bytes = double(sizeof(cplx));

  // Replayed self time of the layers on this workload's path.
  const double transpose_s = tr.median_self("common.transpose");
  const double covered =
      w.fft3d ? tr.median_self("dist.stage") + fft_s + transpose_s + a2a_s
              : tr.median_self("core.load") + fmm_s + halo_s + post + fft_s +
                    (w.g > 1 ? a2a_s : transpose_s) + tr.median_self("core.copy");

  std::map<std::string, double> comm;
  for (const auto& [tag, bytes] : tc.comm_bytes) comm[tag] = bytes;
  double comm_total = 0;
  for (const auto& [tag, bytes] : comm) comm_total += bytes;

  auto& r = c.report;
  r.add("fmm.s2t_s", s2t_s, "s");
  r.add("fmm.s2t_roof_frac", roof_frac(fc.s2t_flops, fc.s2t_bytes, s2t_s), "1");
  r.add("fmm.m2l_s", m2l_s, "s");
  r.add("fmm.m2l_roof_frac", roof_frac(fc.m2l_flops, fc.m2l_bytes, m2l_s), "1");
  r.add("fmm.gemm_stages_s", tr.median_self_any({"fmm.s2m", "fmm.m2m", "fmm.l2l", "fmm.l2t"}), "s");
  r.add("blas.batched_gemm_gflops", gemm_rate / 1e9, "GF/s");
  r.add("fmm.flops", tc.fmm.flops, "count");
  r.add("fmm.bytes", tc.fmm.bytes, "count");
  r.add("fmm.launches", tc.fmm.launches, "count");
  r.add("core.post_s", post, "s");
  r.add("fft.s", fft_s, "s");
  r.add("fft.mpoints_per_s", fft_points / fft_s / 1e6, "Mpt/s");
  r.add("common.transpose_gbps",
        2.0 * double(w.n) * elem_bytes / tr.median_self("common.transpose_sweep") / 1e9, "GB/s");
  r.add("dist.a2a_s", a2a_s, "s");
  r.add("dist.a2a_gbps", 2.0 * double(w.n) * elem_bytes / a2a_s / 1e9, "GB/s");
  r.add("dist.halo_s", halo_s, "s");
  r.add("dist.comm_mb", comm_total / 1e6, "MB");
  for (const char* tag : {"A2A-2D", "COMM-S", "COMM-M", "COMM-MB", "A2A-3D", "A2A-ROW", "A2A-COL"})
    r.add(std::string("dist.comm_mb.") + tag, comm[tag] / 1e6, "MB");
  r.add("dist.comm_msgs", tc.comm_msgs, "count");
  r.add("dist.device_skew", median(skew), "1");
  r.add("dist.baseline1d_s", median(base_s), "s");
  r.add("dist.baseline1d_comm_mb", base_comm / 1e6, "MB");
  r.add("exec.task_us", task_us, "us");
  r.add("exec.async_gain", median(ser) / median(asy), "1");
  r.add("model.decomp_regret", regret, "1");
  r.add("model.fmm_pred_ratio", fmm_pred / fmm_s, "1");
  r.add("sim.speedup_p100", simc.speedup, "1");
  r.add("sim.a2a_critical_frac", simc.a2a_critical_frac, "1");
  r.add("obs.triad_gbps", roof.triad_bps / 1e9, "GB/s");
  r.add("obs.fma_gflops", roof.fma_flops / 1e9, "GF/s");
  r.add("obs.trace_overhead", median(traced) / p50, "1");
  r.add("core.replay_coverage", covered / p50, "1");
  r.info("traced_pairs", num(double(plain.size())));
  r.info("untraced_p50_s", num(p50));
  r.info("roof_threads", num(roof.threads));
  r.info("graph_tasks", num(graph_tasks));
  r.info("bytes_source", str("computed from array sizes (ledger and engine counts)"));
  if (!spans_path.empty() && !tr.write_json(spans_path))
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", spans_path.c_str());
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|tiny] [--corrupt <k>] [--spans <path>]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, size = "full", spans;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  long corrupt_at = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::atoll(v);
    else if (a == "--seconds") seconds = std::atof(v);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--size") size = v;
    else if (a == "--corrupt") corrupt_at = std::atol(v);
    else if (a == "--spans") spans = v;
    else usage(("unknown argument " + a).c_str());
  }
  if (workload.empty() || seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1) ||
      (size != "full" && size != "tiny"))
    usage("bad or missing arguments");

  try {
    Ctx c(make_workload(workload, size == "tiny"), std::uint64_t(seed), corrupt_at);
    const Workload& w = c.w;
    c.report.info("workload", str(w.name));
    c.report.info("seed", num(double(seed)));
    c.report.info("trace", num(trace));
    c.report.info("pool_width", num(ThreadPool::global().workers()));
    c.report.info("n", num(double(w.n)));
    c.report.info("devices", num(w.g));
    c.report.info("precision", str(fmm::to_string(w.prec)));
    c.report.info("tolerance", num(w.tol));
    c.report.info("fmm_plan", str(w.prm.to_string()));
    if (trace)
      traced_run(c, seconds, spans);
    else
      untraced_run(c, seconds);
    const bool correct = c.gate.failed() == 0;
    c.report.print(correct, c.gate.attempted(), c.gate.failed());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
