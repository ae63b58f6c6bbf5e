#include "obs/traffic.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "common/threadpool.hpp"
#include "common/timer.hpp"
#include "obs/env.hpp"
#include "obs/trace_writer.hpp"

namespace fmmfft::obs {

namespace detail {
std::atomic<bool> g_traffic_enabled{false};
}  // namespace detail

void enable_traffic(bool on) {
  detail::g_traffic_enabled.store(on, std::memory_order_relaxed);
}

// --- Scope ------------------------------------------------------------------

int TrafficLedger::Scope::stripe() {
  // Same round-robin thread->stripe assignment as obs::Counter: cheap,
  // stable per thread, and spreads concurrent writers across cache lines.
  static std::atomic<int> next{0};
  thread_local const int idx = next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

TrafficTotals TrafficLedger::Scope::totals() const {
  TrafficTotals t;
  for (const Cell& c : cells_) {
    t.bytes_read += c.rd.load(std::memory_order_relaxed);
    t.bytes_written += c.wr.load(std::memory_order_relaxed);
    t.comm_bytes += c.comm.load(std::memory_order_relaxed);
    t.flops += c.flops.load(std::memory_order_relaxed);
    t.seconds += c.seconds.load(std::memory_order_relaxed);
    t.calls += c.calls.load(std::memory_order_relaxed);
  }
  return t;
}

void TrafficLedger::Scope::reset() {
  for (Cell& c : cells_) {
    c.rd.store(0.0, std::memory_order_relaxed);
    c.wr.store(0.0, std::memory_order_relaxed);
    c.comm.store(0.0, std::memory_order_relaxed);
    c.flops.store(0.0, std::memory_order_relaxed);
    c.seconds.store(0.0, std::memory_order_relaxed);
    c.calls.store(0.0, std::memory_order_relaxed);
  }
}

TrafficTotals& TrafficTotals::operator+=(const TrafficTotals& o) {
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  comm_bytes += o.comm_bytes;
  flops += o.flops;
  seconds += o.seconds;
  calls += o.calls;
  return *this;
}

// --- TrafficLedger ----------------------------------------------------------

TrafficLedger& TrafficLedger::global() {
  static TrafficLedger ledger;
  return ledger;
}

TrafficLedger::Scope& TrafficLedger::scope(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return scopes_[name];  // std::map nodes are pointer-stable
}

void TrafficLedger::add_comm(const std::string& name, double bytes) {
  scope(name).add(0.0, 0.0, bytes, 0.0);
}

void TrafficLedger::add_seconds(const std::string& name, double s) {
  scope(name).add_seconds(s);
}

std::map<std::string, TrafficTotals> TrafficLedger::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, TrafficTotals> out;
  for (const auto& [name, sc] : scopes_) out[name] = sc.totals();
  return out;
}

bool TrafficLedger::is_aux(const std::string& name) {
  return name.rfind("blas.", 0) == 0 || name.rfind("exec.", 0) == 0;
}

TrafficTotals TrafficLedger::total(bool primary_only) const {
  TrafficTotals t;
  for (const auto& [name, totals] : snapshot()) {
    if (primary_only && is_aux(name)) continue;
    t += totals;
  }
  return t;
}

void TrafficLedger::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, sc] : scopes_) sc.reset();
}

namespace {

std::string human_bytes(double b) {
  const char* unit = "B";
  if (b >= 1e9) {
    b /= 1e9;
    unit = "GB";
  } else if (b >= 1e6) {
    b /= 1e6;
    unit = "MB";
  } else if (b >= 1e3) {
    b /= 1e3;
    unit = "KB";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", b, unit);
  return buf;
}

/// Seconds behind a scope's rate: its own, or — for the all-to-all rows,
/// which book none — the async executor's busy seconds on its a2a stage.
double rate_seconds(const std::string& name, const TrafficTotals& t,
                    const std::map<std::string, TrafficTotals>& snap) {
  if (t.seconds > 0) return t.seconds;
  if (name.rfind("a2a.", 0) != 0 && name != "comm.A2A-2D") return 0.0;
  const auto it = snap.find("exec.a2a");
  return it != snap.end() ? it->second.seconds : 0.0;
}

}  // namespace

std::string TrafficLedger::report(const MachineRoofline* cal) const {
  const auto snap = snapshot();
  std::ostringstream os;
  os << "traffic ledger (algorithmic bytes; aux scopes excluded from total)\n";
  char line[256];
  std::snprintf(line, sizeof(line), "  %-14s %12s %12s %12s %14s %8s %9s\n", "scope",
                "read", "written", "comm", "flops", "AI", "w/flop");
  os << line;
  auto row = [&](const std::string& name, const TrafficTotals& t) {
    std::snprintf(line, sizeof(line), "  %-14s %12s %12s %12s %14.4g %8.3f %9.3f",
                  name.c_str(), human_bytes(t.bytes_read).c_str(),
                  human_bytes(t.bytes_written).c_str(), human_bytes(t.comm_bytes).c_str(),
                  t.flops, t.arithmetic_intensity(), t.words_per_flop());
    os << line;
    const double sec = rate_seconds(name, t, snap);
    if (sec > 0 && t.bytes_moved() > 0) {
      const double bps = t.bytes_moved() / sec;
      std::snprintf(line, sizeof(line), "  %7.2f GB/s", bps / 1e9);
      os << line;
      if (cal && cal->roof_bps() > 0) {
        std::snprintf(line, sizeof(line), " (%.0f%% of triad roof)", 100.0 * bps / cal->roof_bps());
        os << line;
      }
    }
    os << "\n";
  };
  for (const auto& [name, t] : snap) {
    if (!is_aux(name)) row(name, t);
  }
  // Timed scopes are a subset and may overlap across lanes: no total rate.
  TrafficTotals all = total(true);
  all.seconds = 0;
  row("TOTAL", all);
  for (const auto& [name, t] : snap) {
    if (is_aux(name)) row(name, t);
  }
  if (cal) {
    std::snprintf(line, sizeof(line),
                  "  calibrated roof: copy %.1f  scale %.1f  triad %.1f GB/s, "
                  "fma %.1f GF/s (%d threads)\n",
                  cal->copy_bps / 1e9, cal->scale_bps / 1e9, cal->triad_bps / 1e9,
                  cal->fma_flops / 1e9, cal->threads);
    os << line;
  }
  return os.str();
}

namespace {

void write_totals(JsonWriter& w, const TrafficTotals& t) {
  w.begin_object();
  w.kv("bytes_read", t.bytes_read);
  w.kv("bytes_written", t.bytes_written);
  w.kv("comm_bytes", t.comm_bytes);
  w.kv("bytes_moved", t.bytes_moved());
  w.kv("flops", t.flops);
  w.kv("seconds", t.seconds);
  w.kv("calls", t.calls);
  w.kv("arithmetic_intensity", t.arithmetic_intensity());
  w.kv("words_per_flop", t.words_per_flop());
  w.end_object();
}

void write_roofline(JsonWriter& w, const MachineRoofline& r) {
  w.begin_object();
  w.kv("threads", double(r.threads));
  w.kv("copy_bps", r.copy_bps);
  w.kv("scale_bps", r.scale_bps);
  w.kv("triad_bps", r.triad_bps);
  w.kv("fma_flops", r.fma_flops);
  w.end_object();
}

}  // namespace

void TrafficLedger::write_json(std::ostream& os, const MachineRoofline* cal) const {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "fmmfft.traffic.v1");
  w.key("scopes");
  w.begin_object();
  for (const auto& [name, t] : snapshot()) {
    w.key(name);
    write_totals(w, t);
  }
  w.end_object();
  w.key("total");
  write_totals(w, total(true));
  w.key("aux_total");
  {
    TrafficTotals aux;
    for (const auto& [name, t] : snapshot())
      if (is_aux(name)) aux += t;
    write_totals(w, aux);
  }
  if (cal) {
    w.key("calibration");
    write_roofline(w, *cal);
  }
  w.end_object();
  os << "\n";
}

// --- STREAM-style self-calibration ------------------------------------------

namespace {

// Simple FMA throughput anchor: `lanes` independent chains so the loop is
// throughput- not latency-bound. Plain scalar code on purpose — the compute
// roof here is "what a straightforward loop reaches", the same ballpark the
// kernels compile to, not a hand-tuned peak.
double fma_loop(index_t iters) {
  constexpr int kLanes = 8;
  double acc[kLanes];
  for (int l = 0; l < kLanes; ++l) acc[l] = 1.0 + 1e-9 * l;
  const double a = 1.0000001, b = 1e-10;
  for (index_t i = 0; i < iters; ++i)
    for (int l = 0; l < kLanes; ++l) acc[l] = acc[l] * a + b;
  double s = 0;
  for (int l = 0; l < kLanes; ++l) s += acc[l];
  return s;
}

}  // namespace

MachineRoofline calibrate_roofline(int threads, index_t elems, int reps) {
  auto& pool = ThreadPool::global();
  const bool serial = threads == 1;
  MachineRoofline r;
  r.threads = serial ? 1 : (threads > 0 ? threads : pool.workers());

  std::vector<double> a(elems), b(elems), c(elems);
  for (index_t i = 0; i < elems; ++i) a[i] = 1.0 + 1e-9 * double(i);
  const double s = 3.0;

  auto run = [&](auto&& body) {
    if (serial) {
      ThreadPool::ScopedSerial guard;
      parallel_for(elems, body, 4096);
    } else {
      parallel_for(elems, body, 4096);
    }
  };
  auto best_of = [&](auto&& body) {
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
      WallTimer t;
      run(body);
      best = std::min(best, t.seconds());
    }
    return best;
  };

  // STREAM convention: copy/scale move 2 arrays, triad moves 3.
  const double copy_s = best_of([&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) b[i] = a[i];
  });
  r.copy_bps = 2.0 * double(elems) * sizeof(double) / copy_s;
  const double scale_s = best_of([&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) b[i] = s * a[i];
  });
  r.scale_bps = 2.0 * double(elems) * sizeof(double) / scale_s;
  const double triad_s = best_of([&](index_t lo, index_t hi) {
    for (index_t i = lo; i < hi; ++i) c[i] = a[i] + s * b[i];
  });
  r.triad_bps = 3.0 * double(elems) * sizeof(double) / triad_s;

  // Compute anchor: 2 flops per FMA, 8 lanes, replicated on each worker.
  const index_t iters = 1 << 21;
  volatile double sink = 0;
  double fma_s = 1e300;
  for (int i = 0; i < reps; ++i) {
    WallTimer t;
    if (serial) {
      ThreadPool::ScopedSerial guard;
      sink = sink + fma_loop(iters);
    } else {
      std::atomic<double> acc{0.0};
      pool.run_chunks(r.threads, [&](index_t) {
        const double v = fma_loop(iters);
        acc.fetch_add(v, std::memory_order_relaxed);
      });
      sink = sink + acc.load();
    }
    fma_s = std::min(fma_s, t.seconds());
  }
  r.fma_flops = 2.0 * 8.0 * double(iters) * double(serial ? 1 : r.threads) / fma_s;
  return r;
}

std::vector<MachineRoofline> calibrate_roofline_sweep(index_t elems, int reps) {
  std::vector<MachineRoofline> sweep;
  sweep.push_back(calibrate_roofline(1, elems, reps));
  const int workers = ThreadPool::global().workers();
  if (workers > 1) sweep.push_back(calibrate_roofline(workers, elems, reps));
  return sweep;
}

void write_calibration_json(std::ostream& os, const std::vector<MachineRoofline>& sweep) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "fmmfft.calibration.v1");
  w.key("results");
  w.begin_array();
  for (const auto& r : sweep) write_roofline(w, r);
  w.end_array();
  w.end_object();
  os << "\n";
}

// --- Environment wiring -----------------------------------------------------

namespace {

std::string& traffic_path() {
  static std::string path;
  return path;
}

void dump_traffic_at_exit() {
  if (!traffic_path().empty()) write_traffic_file(traffic_path());
}

}  // namespace

bool write_traffic_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  TrafficLedger::global().write_json(os);
  return os.good();
}

void init_traffic_from_env() {
  if (const char* path = env::get("FMMFFT_TRAFFIC"); path && *path) {
    // Construct the singleton (and the path string, via traffic_path())
    // *before* registering the atexit dump so both are destroyed after it
    // runs — same discipline as obs::init_from_env.
    TrafficLedger::global();
    traffic_path() = path;
    enable_traffic(true);
    std::atexit(dump_traffic_at_exit);
  }
}

namespace {
[[maybe_unused]] const bool g_traffic_env_initialized = [] {
  init_traffic_from_env();
  return true;
}();
}  // namespace

}  // namespace fmmfft::obs
