// Runtime health layer: flight recorder, watchdog, postmortem.
//
// The tracer/metrics/ledger (obs.hpp, traffic.hpp) explain a run after it
// finishes; this subsystem observes a run *while it executes* and captures
// forensic state when it fails. Three facilities share the usual on/off
// discipline (compiled in everywhere, one relaxed atomic load + branch when
// disabled):
//
//  * Flight recorder — per-thread lock-free rings of the last
//    kFlightCapacity compact events (graph and task start/finish, comm
//    chunks, marks). Unlike the span Recorder's fill-once lanes these rings
//    wrap, so the *most recent* history is always available, and every slot
//    is a seqlocked bundle of relaxed atomics: dumping a ring mid-flight —
//    even from a signal handler — is race-free and never blocks a writer.
//    FMMFFT_FLIGHT=1, or armed automatically with the watchdog/postmortem.
//
//  * Watchdog — a background thread polling registered Sources (the
//    exec::TaskGraph while it runs, pooled or inline — every distributed
//    driver runs as one). A source whose progress counter does not advance for
//    FMMFFT_WATCHDOG_MS fires the watchdog: the source's describe_stall()
//    walks its state to name the stuck task, its stage/device/lane, and the
//    unfinished dependency chain blocking it; the verdict goes to stderr,
//    last_verdict(), and a postmortem dump.
//
//  * Postmortem dump — fmmfft.postmortem.v1 JSON (cause + verdict + flight
//    rings + metrics + traffic ledger), written on
//    watchdog timeout, uncaught task exception (exec::TaskGraph::run), and
//    fatal signals. The signal path (SIGSEGV/SIGABRT) is async-signal-safe:
//    a pre-resolved path, write(2), and hand-rolled formatting only, dumping
//    the cause and the flight rings (the heap-owning registries are not
//    touchable from a handler).
//
// Fault injection (FMMFFT_FAULT_STALL_TASK / exec::inject_stall) lets tests
// force a deterministic stall and assert the whole detect→attribute→dump
// pipeline end to end.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fmmfft::obs::health {

namespace detail {
// Defined in health.cpp; referencing them from the inline hooks pulls the
// health TU (and its env initializer) into any binary using them.
extern std::atomic<bool> g_flight_enabled;
}  // namespace detail

inline bool flight_enabled() {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Flight recorder

/// Compact event kinds. Values are stable (they appear in postmortems).
enum class Ev : std::uint8_t {
  Mark = 0,        ///< free-form marker (tag)
  GraphStart = 1,  ///< a = task count
  GraphEnd = 2,    ///< a = tasks completed
  TaskStart = 3,   ///< a = task id, lane = graph lane, tag = span prefix
  TaskEnd = 4,     ///< a = task id
  TaskFail = 5,    ///< a = task id (body threw)
  // 6 was the retired serial-driver stage beat; the value stays unused.
  Comm = 7,        ///< fabric transfer: a = chunk/elems id, tag = link tag
  Fault = 8,       ///< injected fault triggered: a = task id
};
const char* ev_name(Ev kind);

/// Events kept per thread ring (power of two; older events are overwritten).
inline constexpr std::uint32_t kFlightCapacity = 4096;
/// Tag capacity per event (prefix-truncated copy, always NUL-terminated).
inline constexpr int kFlightTagCap = 16;

/// One decoded flight event (snapshot/dump side).
struct FlightEvent {
  std::uint64_t seq = 0;   ///< per-ring monotonic event number (1-based)
  std::uint64_t t_ns = 0;  ///< steady-clock ns since process epoch
  std::uint32_t a = 0;
  int lane = 0;
  Ev kind = Ev::Mark;
  int ring = 0;  ///< recording thread's ring id
  char tag[kFlightTagCap + 1] = {};
};

namespace detail {
void flight_record(Ev kind, std::uint32_t a, int lane, const char* tag);
}

/// Record one event on the calling thread's ring (~1ns when disabled).
inline void flight(Ev kind, std::uint32_t a, int lane, const char* tag) {
  if (!flight_enabled()) return;
  detail::flight_record(kind, a, lane, tag);
}

void enable_flight(bool on = true);
/// Consistent decoded copy of every ring, ordered by (ring, seq). Safe to
/// call at any moment, including while all threads keep recording.
std::vector<FlightEvent> flight_snapshot();
/// Total events ever recorded (wrapped events still count).
std::uint64_t flight_recorded();
void flight_clear();

// ---------------------------------------------------------------------------
// Watchdog

/// A monitorable execution. progress() must advance whenever real forward
/// progress happens; describe_stall() is called (from the watchdog thread)
/// after the deadline passed without advancement and should name the stuck
/// work as precisely as possible. Implementations must be callable from a
/// foreign thread at any time between register_source/unregister_source.
class Source {
 public:
  virtual ~Source() = default;
  virtual const char* source_name() const = 0;
  virtual std::uint64_t progress() const = 0;
  virtual std::string describe_stall() const = 0;
};

/// Register/unregister a source. unregister blocks until any in-flight
/// watchdog inspection of the source finished, so the pointee may be
/// destroyed immediately after unregistering.
void register_source(Source* s);
void unregister_source(Source* s);

/// Start (deadline_ms > 0) or stop (0) the watchdog thread. Starting also
/// arms the flight recorder so a verdict has history to dump.
void enable_watchdog(std::uint64_t deadline_ms);
bool watchdog_enabled();
std::uint64_t watchdog_deadline_ms();
/// Number of stalls the watchdog has fired on since process start.
std::uint64_t watchdog_fires();
/// Copy of the most recent stall verdict ("" if none fired yet).
std::string last_verdict();

// ---------------------------------------------------------------------------
// Postmortem

/// Resolved dump path (FMMFFT_POSTMORTEM or the default). Stable storage.
std::string postmortem_path();
void set_postmortem_path(const std::string& path);

/// True once any health facility is on or a postmortem path was configured:
/// the gate for automatic dumps (task exceptions, signals), so a library
/// user who never enabled health does not get surprise files.
bool postmortem_armed();
void arm_postmortem(bool on = true);

/// Write a fmmfft.postmortem.v1 JSON dump: cause, verdict, flight rings,
/// watchdog state, metrics, traffic ledger.
bool write_postmortem(const std::string& path, const std::string& cause,
                      const std::string& verdict);
/// write_postmortem to the resolved path, if armed. Returns the path
/// written ("" when disarmed or on write failure). Used by the watchdog and
/// by exec::TaskGraph's exception path.
std::string emit_postmortem(const std::string& cause, const std::string& verdict);

/// Install SIGSEGV/SIGABRT handlers that write a reduced postmortem (cause
/// + flight rings) through the async-signal-safe path, then re-raise.
void install_crash_handlers();

namespace detail {
/// The async-signal-safe dump body the installed handlers invoke: open(2) +
/// write(2) + hand-rolled formatting to the pre-resolved path. Exposed so
/// tests can validate the emitted JSON without crashing the process.
void write_signal_dump(int sig);
}  // namespace detail

/// Read the FMMFFT_FLIGHT / FMMFFT_WATCHDOG_MS / FMMFFT_POSTMORTEM knobs and
/// arm the corresponding facilities. Runs automatically at startup from
/// health.cpp's initializer.
void init_from_env();

}  // namespace fmmfft::obs::health

// ---------------------------------------------------------------------------
// Hook macro — what hot paths touch. Disabled cost: one relaxed load + branch.

#ifdef FMMFFT_OBS_DISABLE
#define FMMFFT_FLIGHT(kind, a, lane, tag) ((void)0)
#else
#define FMMFFT_FLIGHT(kind, a, lane, tag)                                      \
  ::fmmfft::obs::health::flight(::fmmfft::obs::health::Ev::kind,               \
                                static_cast<std::uint32_t>(a), (lane), (tag))
#endif
