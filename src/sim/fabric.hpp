// Byte-accounting interconnect for the *numerical* execution of distributed
// runs. Devices are simulated as separate memory arenas in one address
// space: a transfer is a memcpy plus a ledger entry (send), or — for the
// fused all-to-all, whose payload moves zero-copy as strided peer-to-peer
// writes — just the ledger entry (record). Either way tests can verify
// that the bytes that moved match the §5.2 communication model and the
// schedule emitted for the timeline simulator.
#pragma once

#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::sim {

class Fabric {
 public:
  explicit Fabric(int num_devices) : g_(num_devices) { FMMFFT_CHECK(num_devices >= 1); }

  int num_devices() const { return g_; }

  struct Transfer {
    int src, dst;
    double bytes;
    std::string tag;
  };

  /// Move `count` elements from device `src` to device `dst`. Self-copies
  /// are local and not recorded as traffic. Payloads whose real component
  /// is 4 bytes wide (fp32 shells, and the mixed-precision multipole/source
  /// halos under an fp64 shell) land under ".f32"-suffixed traffic-ledger
  /// keys, so every key holds bytes at exactly one element width and the
  /// §5 cross-check stays exact when widths coexist in one run. The span
  /// and the Transfer ledger keep the plain tag (message identity, not
  /// width, is what they attribute).
  template <typename T>
  void send(int src, int dst, const T* s, T* d, index_t count, const std::string& tag) {
    FMMFFT_CHECK(src >= 0 && src < g_ && dst >= 0 && dst < g_);
    if (count == 0) return;
    FMMFFT_SPAN("xfer:", tag);
    std::memmove(d, s, sizeof(T) * static_cast<std::size_t>(count));
    account(src, dst, double(sizeof(T)) * double(count), tag,
            sizeof(real_of_t<T>) == 4);
  }

  /// Account a transfer whose payload already moved zero-copy (the fused
  /// all-to-all scatters producer slabs straight into consumer layouts, so
  /// there is no contiguous message to memmove). Ledger entries and
  /// traffic-ledger comm bytes are identical to send()'s; self-pairs
  /// are local placement and not recorded, like self send()s.
  /// `f32_payload` keys the bytes per element width like send() does.
  void record(int src, int dst, double bytes, const std::string& tag,
              bool f32_payload = false) {
    FMMFFT_CHECK(src >= 0 && src < g_ && dst >= 0 && dst < g_);
    if (src == dst || bytes <= 0) return;
    FMMFFT_SPAN("xfer:", tag);
    account(src, dst, bytes, tag, f32_payload);
  }

 private:
  void account(int src, int dst, double bytes, const std::string& tag, bool f32) {
    if (src == dst || bytes <= 0) return;
    {
      // The async executor issues copies from concurrent tasks; the ledger
      // is the only shared mutable state (the payload regions are disjoint
      // by construction of the dependency graph).
      std::lock_guard<std::mutex> lk(mu_);
      ledger_.push_back({src, dst, bytes, tag});
    }
    if (!obs::traffic_enabled()) return;
    const std::string key = f32 ? tag + ".f32" : tag;
    obs::TrafficLedger::global().add_comm("comm." + key, bytes);
  }

 public:
  /// Readers run between graph executions (tests, reports), never
  /// concurrently with send(); the lock still guards against torn reads
  /// if they ever do.
  const std::vector<Transfer>& transfers() const { return ledger_; }

  double total_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    double b = 0;
    for (const auto& t : ledger_) b += t.bytes;
    return b;
  }

  /// Bytes sent by one device (the §5.2 counts are per process).
  double bytes_sent_by(int device) const {
    std::lock_guard<std::mutex> lk(mu_);
    double b = 0;
    for (const auto& t : ledger_)
      if (t.src == device) b += t.bytes;
    return b;
  }

  double bytes_with_tag(const std::string& tag) const {
    std::lock_guard<std::mutex> lk(mu_);
    double b = 0;
    for (const auto& t : ledger_)
      if (t.tag == tag) b += t.bytes;
    return b;
  }

  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    ledger_.clear();
  }

 private:
  int g_;
  mutable std::mutex mu_;
  std::vector<Transfer> ledger_;
};

}  // namespace fmmfft::sim
