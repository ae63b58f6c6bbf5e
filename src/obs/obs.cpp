#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "obs/env.hpp"
#include "obs/health.hpp"
#include "obs/trace_writer.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::obs {

namespace detail {

std::atomic<bool> g_trace_enabled{false};
std::atomic<bool> g_metrics_enabled{false};
std::uint64_t now_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch).count());
}

namespace {
thread_local int tls_depth = 0;
}

int open_span() { return tls_depth++; }

void close_span(const char* name, std::uint64_t start_ns, int depth) {
  --tls_depth;
  if (tracing_enabled()) record_span(name, start_ns, now_ns(), depth);
}

}  // namespace detail

void enable_tracing(bool on) {
  if (on) Recorder::global();  // construct before first lock-free record
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}
void enable_metrics(bool on) {
  if (on) Metrics::global();
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}
void enable() {
  enable_tracing(true);
  enable_metrics(true);
}
void disable() {
  enable_tracing(false);
  enable_metrics(false);
  enable_traffic(false);
}
void reset() {
  Recorder::global().clear();
  Metrics::global().reset();
  TrafficLedger::global().reset();
}

// ---------------------------------------------------------------------------
// Recorder

/// Single-producer ring: only the owning thread appends; readers take the
/// registry mutex and synchronize on the release store of `size`.
struct Recorder::Lane {
  explicit Lane(int id_) : id(id_) { events.resize(kLaneCapacity); }
  int id;
  std::vector<SpanEvent> events;
  std::atomic<std::uint32_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
};

namespace {
thread_local Recorder::Lane* tls_lane = nullptr;
}

Recorder& Recorder::global() {
  static Recorder r;
  return r;
}

Recorder::Lane* Recorder::register_lane() {
  std::lock_guard<std::mutex> lk(mu_);
  lanes_.push_back(std::make_unique<Lane>(static_cast<int>(lanes_.size())));
  return lanes_.back().get();
}

namespace detail {
void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns, int depth) {
  Recorder::Lane* lane = tls_lane;
  if (!lane) lane = tls_lane = Recorder::global().register_lane();
  const std::uint32_t n = lane->size.load(std::memory_order_relaxed);
  if (n >= Recorder::kLaneCapacity) {
    lane->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanEvent& ev = lane->events[n];
  std::strncpy(ev.name, name, sizeof ev.name - 1);
  ev.name[sizeof ev.name - 1] = '\0';
  ev.start_ns = start_ns;
  ev.end_ns = end_ns;
  ev.lane = lane->id;
  ev.depth = depth;
  lane->size.store(n + 1, std::memory_order_release);
}
}  // namespace detail

std::vector<SpanEvent> Recorder::snapshot() const {
  std::vector<SpanEvent> out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& lane : lanes_) {
    const std::uint32_t n = lane->size.load(std::memory_order_acquire);
    out.insert(out.end(), lane->events.begin(), lane->events.begin() + n);
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    return a.lane != b.lane ? a.lane < b.lane : a.start_ns < b.start_ns;
  });
  return out;
}

std::uint64_t Recorder::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t d = 0;
  for (const auto& lane : lanes_) d += lane->dropped.load(std::memory_order_relaxed);
  return d;
}

int Recorder::lanes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(lanes_.size());
}

void Recorder::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& lane : lanes_) {
    lane->size.store(0, std::memory_order_release);
    lane->dropped.store(0, std::memory_order_relaxed);
  }
}

void Recorder::write_chrome_trace(std::ostream& os) const {
  TraceWriter tw(os);
  for (const SpanEvent& ev : snapshot())
    tw.complete_event(ev.name, double(ev.start_ns) * 1e-3,
                      double(ev.end_ns - ev.start_ns) * 1e-3, 0,
                      "lane" + std::to_string(ev.lane));
  tw.finish();
}

// ---------------------------------------------------------------------------
// Metrics

namespace {
/// Stripe assignment: threads pick distinct cells round-robin.
int stripe_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned idx = next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int>(idx % unsigned(Counter::kStripes));
}
}  // namespace

void Counter::add(double v) {
  cells_[stripe_index()].v.fetch_add(v, std::memory_order_relaxed);
}

double Counter::value() const {
  double s = 0;
  for (const Cell& c : cells_) s += c.v.load(std::memory_order_relaxed);
  return s;
}

void Counter::reset() {
  for (Cell& c : cells_) c.v.store(0.0, std::memory_order_relaxed);
}

void Histogram::observe(double v) {
  // NaN carries no rank information and would poison sum(); drop it. +inf
  // must not reach ilogb (ilogb(inf) == INT_MAX, and 1 + INT_MAX is signed
  // overflow): clamp everything at or above the top bucket's lower edge
  // first. Negative values (clock skew artifacts) land in bucket 0.
  if (std::isnan(v)) return;
  int k = 0;
  if (v >= std::ldexp(1.0, kBuckets - 2)) {
    k = kBuckets - 1;
  } else if (v >= 1.0) {
    k = std::min(kBuckets - 1, 1 + std::ilogb(v));
  }
  buckets_[k].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(std::isinf(v) ? std::ldexp(1.0, kBuckets - 1) : v,
                 std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::percentile(double p) const {
  // Snapshot once so the estimate is consistent under concurrent observe().
  std::uint64_t snap[kBuckets];
  std::uint64_t total = 0;
  for (int k = 0; k < kBuckets; ++k) total += snap[k] = buckets_[k].load(std::memory_order_relaxed);
  if (total == 0 || std::isnan(p)) return 0.0;
  const double rank = std::min(std::max(p, 0.0), 100.0) / 100.0 * double(total);
  double cum = 0;
  for (int k = 0; k < kBuckets; ++k) {
    if (snap[k] == 0) continue;
    const double next = cum + double(snap[k]);
    if (next >= rank) {
      const double lo = k == 0 ? 0.0 : std::ldexp(1.0, k - 1);
      const double hi = std::ldexp(1.0, k);
      const double frac = (rank - cum) / double(snap[k]);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return std::ldexp(1.0, kBuckets - 1);  // unreachable: rank <= total
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Metrics& Metrics::global() {
  static Metrics m;
  return m;
}

Counter& Metrics::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return counters_[name];
}

Gauge& Metrics::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return gauges_[name];
}

Histogram& Metrics::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return histograms_[name];
}

std::map<std::string, double> Metrics::counters_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, c] : counters_) out[name] = c.value();
  return out;
}

void Metrics::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  JsonWriter jw(os);
  jw.begin_object();
  jw.key("counters");
  jw.begin_object();
  for (const auto& [name, c] : counters_) jw.kv(name, c.value());
  jw.end_object();
  jw.key("gauges");
  jw.begin_object();
  for (const auto& [name, g] : gauges_) jw.kv(name, g.value());
  jw.end_object();
  jw.key("histograms");
  jw.begin_object();
  for (const auto& [name, h] : histograms_) {
    jw.key(name);
    jw.begin_object();
    jw.kv("count", double(h.count()));
    jw.kv("sum", h.sum());
    jw.kv("p50", h.percentile(50));
    jw.kv("p95", h.percentile(95));
    jw.kv("p99", h.percentile(99));
    jw.key("buckets");
    jw.begin_array();
    for (int k = 0; k < Histogram::kBuckets; ++k) {
      const std::uint64_t n = h.bucket(k);
      if (n == 0) continue;
      jw.begin_array();
      jw.value(k == 0 ? 0.0 : std::ldexp(1.0, k - 1));  // bucket lower bound
      jw.value(double(n));
      jw.end_array();
    }
    jw.end_array();
    jw.end_object();
  }
  jw.end_object();
  jw.end_object();
}

void Metrics::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

// ---------------------------------------------------------------------------
// Environment-driven setup and at-exit dump

bool write_trace_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  Recorder::global().write_chrome_trace(os);
  return bool(os);
}

bool write_metrics_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  Metrics::global().write_json(os);
  os << "\n";
  return bool(os);
}

namespace {

std::string g_trace_path, g_metrics_path;

void dump_at_exit() {
  if (!g_trace_path.empty() && !write_trace_file(g_trace_path))
    std::fprintf(stderr, "fmmfft: could not write FMMFFT_TRACE=%s\n", g_trace_path.c_str());
  if (!g_metrics_path.empty() && !write_metrics_file(g_metrics_path))
    std::fprintf(stderr, "fmmfft: could not write FMMFFT_METRICS=%s\n", g_metrics_path.c_str());
}

}  // namespace

void init_from_env() {
  static bool done = false;
  if (done) return;
  done = true;
  // Referencing the health layer links its env initializer (flight
  // recorder, watchdog, postmortem crash handlers) into every binary that
  // uses the obs hooks, not only those that run a task graph.
  (void)health::flight_enabled();
  const char* trace = env::get("FMMFFT_TRACE");
  const char* metrics = env::get("FMMFFT_METRICS");
  if (!trace && !metrics) return;
  // Construct the singletons *before* registering the atexit dump so they
  // are destroyed after it runs.
  Recorder::global();
  Metrics::global();
  if (trace && *trace) {
    g_trace_path = trace;
    enable_tracing(true);
  }
  if (metrics && *metrics) {
    g_metrics_path = metrics;
    enable_metrics(true);
  }
  std::atexit(dump_at_exit);
}

namespace {
// Any TU that uses the hook macros references detail::g_*_enabled, which
// pulls this object file — and with it this initializer — into the link.
[[maybe_unused]] const bool g_env_initialized = [] {
  init_from_env();
  return true;
}();
}  // namespace

}  // namespace fmmfft::obs
