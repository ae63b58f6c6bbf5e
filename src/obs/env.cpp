#include "obs/env.hpp"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace fmmfft::obs::env {

const std::vector<Knob>& registry() {
  static const std::vector<Knob> knobs = {
      {"FMMFFT_TRACE", "path", "(unset)",
       "record spans, write a chrome://tracing JSON here at exit"},
      {"FMMFFT_METRICS", "path", "(unset)",
       "record counters/gauges/histograms, write the metrics JSON here at exit"},
      {"FMMFFT_TRAFFIC", "path", "(unset)",
       "record the memory-traffic ledger, write its JSON here at exit"},
      {"FMMFFT_NUM_THREADS", "int", "hardware",
       "host thread-pool size (default: all hardware threads)"},
      {"FMMFFT_PRECISION", "enum", "fp64",
       "FMM translation precision: fp64 | mixed (fp32 operators, kernels and "
       "comm payloads under an fp64 shell)"},
      {"FMMFFT_DECOMP", "enum", "auto",
       "distributed 3D FFT decomposition: auto (cost model) | slab (one-phase "
       "all-to-all) | pencil (two-phase row/column sub-communicators)"},
      {"FMMFFT_GRID", "string", "(squarest)",
       "3D pencil processor grid as PRxPC (e.g. 2x4); must multiply to the "
       "device count and divide the transform extents"},
      {"FMMFFT_FLIGHT", "flag", "0",
       "enable the always-on flight recorder (per-thread rings of recent events)"},
      {"FMMFFT_WATCHDOG_MS", "int", "0",
       "progress deadline in ms; >0 starts the watchdog thread (also arms the "
       "flight recorder)"},
      {"FMMFFT_POSTMORTEM", "path", "fmmfft.postmortem.json",
       "postmortem dump path; setting it arms crash handlers + flight recorder"},
      {"FMMFFT_FAULT_STALL_TASK", "int", "(unset)",
       "fault injection: stall the task-graph task with this id (tests/drills)"},
      {"FMMFFT_FAULT_STALL_MS", "int", "750",
       "fault injection: how long the injected stall sleeps"},
  };
  return knobs;
}

namespace {

const Knob* find(const char* name) {
  for (const Knob& k : registry())
    if (std::strcmp(k.name, name) == 0) return &k;
  return nullptr;
}

}  // namespace

const char* get(const char* name) {
  FMMFFT_CHECK_MSG(find(name) != nullptr,
                   "environment knob " << name << " is not in obs::env::registry()");
  return std::getenv(name);
}

long long get_int(const char* name, long long def) {
  const char* v = get(name);
  if (!v || !*v) return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return end != v ? parsed : def;
}

std::string describe() {
  std::ostringstream os;
  std::size_t w = 0;
  for (const Knob& k : registry()) w = std::max(w, std::strlen(k.name));
  for (const Knob& k : registry()) {
    const char* cur = std::getenv(k.name);
    os << k.name << std::string(w - std::strlen(k.name) + 2, ' ')
       << (cur && *cur ? cur : "(unset)") << "  [" << k.kind << ", default " << k.def
       << "]\n" << std::string(w + 2, ' ') << k.desc << "\n";
  }
  return os.str();
}

}  // namespace fmmfft::obs::env
