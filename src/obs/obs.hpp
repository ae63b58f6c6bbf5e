// Runtime observability: span tracing and a metrics registry.
//
// The repo *predicts* per-stage flop/byte/comm counts (src/model/counts.*)
// and *simulates* their timing (src/sim/schedule.*); this subsystem observes
// what the real host execution actually does. Two independent facilities
// share one on/off discipline:
//
//  * Spans — RAII scopes (`FMMFFT_SPAN("M2L")`) written to per-thread ring
//    buffers and collected by the process-wide Recorder, exportable as
//    chrome://tracing / Perfetto JSON (obs/trace_writer.hpp).
//  * Metrics — named counters / gauges / histograms for what the traffic
//    ledger does not hold (executor, pool and health counters, decomposition
//    gauges, launch-time histograms), dumpable as JSON. Flops, bytes and
//    fabric payload are counted once, in obs::TrafficLedger
//    (obs/traffic.hpp), which obs/compare.hpp diffs against the §5 model.
//
// Everything is compiled in but runs as a no-op unless enabled: the
// disabled fast path of every hook is one relaxed atomic load and a branch,
// with no allocation (tests/test_obs.cpp asserts this; the cost is measured
// by bench/micro_benchmarks.cpp). Enabling is programmatic
// (obs::enable_tracing / obs::enable_metrics) or via the environment:
// FMMFFT_TRACE=<path> and FMMFFT_METRICS=<path> enable the respective
// facility at startup and write the JSON files at process exit.
// Defining FMMFFT_OBS_DISABLE removes the hooks entirely at compile time.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace fmmfft::obs {

namespace detail {
// Defined in obs.cpp. Referencing these from the macros pulls obs.cpp (and
// its environment-variable initializer) into any binary using the hooks.
extern std::atomic<bool> g_trace_enabled;
extern std::atomic<bool> g_metrics_enabled;
/// True while any span consumer is live: tracing, or the health span
/// sampler. SpanScope gates on this so the sampler sees the current-span
/// stack without tracing enabled (same one-load disabled cost).
extern std::atomic<bool> g_span_hooks;
/// Recompute g_span_hooks from the tracing + sampling states.
void update_span_hooks();
std::uint64_t now_ns();  ///< steady-clock ns since the process epoch
}  // namespace detail

inline bool tracing_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
inline bool span_hooks_enabled() {
  return detail::g_span_hooks.load(std::memory_order_relaxed);
}
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline bool enabled() { return tracing_enabled() || metrics_enabled(); }

void enable_tracing(bool on = true);
void enable_metrics(bool on = true);
void enable();   ///< both facilities
void disable();  ///< every facility (tracing, metrics, traffic ledger)
/// Drop all recorded spans and zero every metric. Registered counters stay
/// alive (hook sites hold references), only their values reset.
void reset();

// ---------------------------------------------------------------------------
// Spans

/// One completed span. `name` is a bounded copy so events never reference
/// caller-owned storage; `lane` is the recording thread's registration
/// order; `depth` is the nesting level within the lane (0 = outermost).
struct SpanEvent {
  static constexpr int kNameCap = 40;
  char name[kNameCap];
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int lane = 0;
  int depth = 0;
};

namespace detail {
void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns, int depth);
int enter_span();  ///< returns this span's depth on the current lane
void leave_span();
/// Out-of-line SpanScope open/close: enter/leave the lane depth, publish to
/// the health sampler's per-thread stack while sampling, and record the
/// completed span while tracing. open_span returns the span's depth.
int open_span(const char* name);
void close_span(const char* name, std::uint64_t start_ns, int depth);
}  // namespace detail

/// RAII span scope. Construction/destruction with tracing disabled costs
/// one relaxed load + branch and never allocates.
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (!span_hooks_enabled()) return;
    open(name);
  }
  /// Dynamic-suffix form for tagged spans ("COMM-M7", fabric tags). The
  /// string is copied into the event, never retained.
  SpanScope(const char* prefix, const std::string& suffix) {
    if (!span_hooks_enabled()) return;
    char buf[SpanEvent::kNameCap];
    std::snprintf(buf, sizeof buf, "%s%s", prefix, suffix.c_str());
    open(buf);
  }
  ~SpanScope() {
    if (!active_) return;
    detail::close_span(name_, start_, depth_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  void open(const char* name) {
    active_ = true;
    std::strncpy(name_, name, sizeof name_ - 1);
    name_[sizeof name_ - 1] = '\0';
    depth_ = detail::open_span(name_);
    start_ = detail::now_ns();
  }
  bool active_ = false;
  int depth_ = 0;
  std::uint64_t start_ = 0;
  char name_[SpanEvent::kNameCap] = {};
};

/// Process-wide span collector. Lanes (one per recording thread) are owned
/// here and live for the process lifetime; threads cache a raw pointer in
/// thread-local storage, so recording is lock-free single-producer.
class Recorder {
 public:
  static Recorder& global();

  /// Copy of all completed spans, ordered by (lane, start time).
  std::vector<SpanEvent> snapshot() const;
  /// Spans dropped because a lane's ring filled (kLaneCapacity).
  std::uint64_t dropped() const;
  int lanes() const;
  void clear();

  /// chrome://tracing JSON of all recorded spans (obs::TraceWriter format;
  /// pid 0, one tid per lane, timestamps relative to the process epoch).
  void write_chrome_trace(std::ostream& os) const;

  static constexpr std::size_t kLaneCapacity = std::size_t(1) << 15;

  struct Lane;  ///< defined in obs.cpp; threads cache a Lane* in TLS

 private:
  friend void detail::record_span(const char*, std::uint64_t, std::uint64_t, int);
  Lane* register_lane();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// ---------------------------------------------------------------------------
// Metrics

/// Monotonic double counter, striped across cache lines so concurrent
/// parallel_for workers don't serialize on one atomic.
class Counter {
 public:
  static constexpr int kStripes = 16;

  void add(double v);
  void increment() { add(1.0); }
  double value() const;
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<double> v{0.0};
  };
  Cell cells_[kStripes];
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

/// Power-of-two bucketed histogram of non-negative samples: bucket k counts
/// samples in [2^(k-1), 2^k) (bucket 0: [0, 1)).
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  void observe(double v);
  std::uint64_t count() const;
  double sum() const;
  std::uint64_t bucket(int k) const { return buckets_[k].load(std::memory_order_relaxed); }
  /// Estimated p-th percentile (p in [0, 100]), linearly interpolated within
  /// the containing bucket; 0 when the histogram is empty. Resolution is the
  /// bucket width, i.e. a factor of 2.
  double percentile(double p) const;

 private:
  friend class Metrics;
  void reset();
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<double> sum_{0.0};
};

/// Process-wide metrics registry. Instruments are created on first lookup
/// and never destroyed before exit, so hook sites may cache references.
class Metrics {
 public:
  static Metrics& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Counter values by name (zero-valued counters included).
  std::map<std::string, double> counters_snapshot() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} JSON.
  void write_json(std::ostream& os) const;

  void reset();  ///< zero all values, keep the instruments registered

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// ---------------------------------------------------------------------------
// File output

/// Read FMMFFT_TRACE / FMMFFT_METRICS and arm the at-exit dump for any that
/// are set. Runs automatically at startup from obs.cpp's initializer;
/// calling it again is harmless.
void init_from_env();

/// Write the recorded spans / current metrics as JSON to `path` (the
/// explicit counterparts of the env-driven at-exit dump).
bool write_trace_file(const std::string& path);
bool write_metrics_file(const std::string& path);

}  // namespace fmmfft::obs

// ---------------------------------------------------------------------------
// Hook macros — the only things hot paths touch.

#ifdef FMMFFT_OBS_DISABLE
#define FMMFFT_SPAN(...) ((void)0)
#define FMMFFT_COUNT(name, delta) ((void)0)
#define FMMFFT_HIST(name, value) ((void)0)
#else
#define FMMFFT_OBS_CONCAT2(a, b) a##b
#define FMMFFT_OBS_CONCAT(a, b) FMMFFT_OBS_CONCAT2(a, b)
/// Open a span covering the rest of the enclosing scope.
/// FMMFFT_SPAN("name") or FMMFFT_SPAN("prefix", std::string_suffix).
#define FMMFFT_SPAN(...) \
  ::fmmfft::obs::SpanScope FMMFFT_OBS_CONCAT(fmmfft_obs_span_, __LINE__)(__VA_ARGS__)
/// Add `delta` to the counter named by the string literal `name`. The
/// registry lookup happens once per call site (magic static).
#define FMMFFT_COUNT(name, delta)                                                   \
  do {                                                                              \
    if (::fmmfft::obs::metrics_enabled()) {                                         \
      static ::fmmfft::obs::Counter& fmmfft_obs_counter =                           \
          ::fmmfft::obs::Metrics::global().counter(name);                           \
      fmmfft_obs_counter.add(static_cast<double>(delta));                           \
    }                                                                               \
  } while (0)
/// Observe `value` in the histogram named by the string literal `name`
/// (power-of-two buckets; p50/p95/p99 appear in the metrics JSON).
#define FMMFFT_HIST(name, value)                                                    \
  do {                                                                              \
    if (::fmmfft::obs::metrics_enabled()) {                                         \
      static ::fmmfft::obs::Histogram& fmmfft_obs_hist =                            \
          ::fmmfft::obs::Metrics::global().histogram(name);                         \
      fmmfft_obs_hist.observe(static_cast<double>(value));                          \
    }                                                                               \
  } while (0)
#endif
