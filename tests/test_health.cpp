// Runtime health layer: flight recorder, env registry, watchdog (no false
// positive / guaranteed fire with stall attribution), and postmortem dumps
// (writer path + async-signal-safe path).
#include <gtest/gtest.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "dist/dfmmfft.hpp"
#include "exec/executor.hpp"
#include "json_validator.hpp"
#include "obs/env.hpp"
#include "obs/health.hpp"
#include "obs/obs.hpp"

// The death test forks, which TSan instrumentation does not support.
#if defined(__SANITIZE_THREAD__)
#define FMMFFT_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FMMFFT_TSAN_BUILD 1
#endif
#endif

namespace health = fmmfft::obs::health;
namespace env = fmmfft::obs::env;
using fmmfft::ThreadPool;
using fmmfft::exec::DeviceLanes;
using fmmfft::exec::TaskGraph;
using fmmfft::exec::TaskId;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

/// Scoped health teardown so one test's armed facilities never leak into
/// the next.
struct HealthQuiesce {
  ~HealthQuiesce() {
    health::enable_watchdog(0);
    health::enable_flight(false);
    health::arm_postmortem(false);
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Flight recorder

TEST(Flight, DisabledRecordsNothing) {
  HealthQuiesce q;
  health::enable_flight(false);
  const std::uint64_t before = health::flight_recorded();
  for (int i = 0; i < 100; ++i) FMMFFT_FLIGHT(Mark, i, 0, "off");
  EXPECT_EQ(health::flight_recorded(), before);
}

TEST(Flight, RecordsAndDecodes) {
  HealthQuiesce q;
  health::enable_flight(true);
  health::flight_clear();
  FMMFFT_FLIGHT(TaskStart, 42, 3, "fmm:m2l d1");
  FMMFFT_FLIGHT(Comm, 7, 5, "A2A-2D c2");
  const auto events = health::flight_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, health::Ev::TaskStart);
  EXPECT_EQ(events[0].a, 42u);
  EXPECT_EQ(events[0].lane, 3);
  EXPECT_STREQ(events[0].tag, "fmm:m2l d1");
  EXPECT_EQ(events[1].kind, health::Ev::Comm);
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
}

TEST(Flight, TagIsPrefixTruncated) {
  HealthQuiesce q;
  health::enable_flight(true);
  health::flight_clear();
  FMMFFT_FLIGHT(Mark, 0, 0, "0123456789abcdefOVERFLOW");
  const auto events = health::flight_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].tag, "0123456789abcde");  // kFlightTagCap-1 chars + NUL
}

TEST(Flight, RingWrapsKeepingMostRecent) {
  HealthQuiesce q;
  health::enable_flight(true);
  health::flight_clear();
  const std::uint32_t n = health::kFlightCapacity + 500;
  for (std::uint32_t i = 0; i < n; ++i) FMMFFT_FLIGHT(Mark, i, 0, "wrap");
  EXPECT_GE(health::flight_recorded(), std::uint64_t(n));
  const auto events = health::flight_snapshot();
  ASSERT_LE(events.size(), std::size_t(health::kFlightCapacity));
  ASSERT_FALSE(events.empty());
  // The newest event survived; the oldest surviving one is past the wrap.
  std::uint32_t amax = 0, amin = n;
  for (const auto& ev : events) {
    amax = std::max(amax, ev.a);
    amin = std::min(amin, ev.a);
  }
  EXPECT_EQ(amax, n - 1);
  EXPECT_GE(amin, n - health::kFlightCapacity);
}

TEST(Flight, ConcurrentWritersGetDistinctRings) {
  HealthQuiesce q;
  health::enable_flight(true);
  health::flight_clear();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([] {
      for (int i = 0; i < 200; ++i) FMMFFT_FLIGHT(Mark, i, 0, "mt");
    });
  // Concurrent snapshots while writers run must stay consistent.
  for (int s = 0; s < 20; ++s) (void)health::flight_snapshot();
  for (auto& t : threads) t.join();
  const auto events = health::flight_snapshot();
  std::size_t mine = 0;
  std::vector<int> rings;
  for (const auto& ev : events)
    if (std::string(ev.tag) == "mt") {
      ++mine;
      rings.push_back(ev.ring);
    }
  EXPECT_EQ(mine, 800u);
  std::sort(rings.begin(), rings.end());
  rings.erase(std::unique(rings.begin(), rings.end()), rings.end());
  EXPECT_EQ(rings.size(), 4u);  // one single-producer ring per thread
}

// ---------------------------------------------------------------------------
// Env registry

TEST(EnvRegistry, KnownKnobsResolve) {
  // Unset registered knobs return defaults without throwing.
  for (const auto& k : env::registry()) (void)env::get(k.name);
  ::setenv("FMMFFT_WATCHDOG_MS", "123", 1);
  EXPECT_EQ(env::get_int("FMMFFT_WATCHDOG_MS", 0), 123);
  ::setenv("FMMFFT_WATCHDOG_MS", "notanumber", 1);
  EXPECT_EQ(env::get_int("FMMFFT_WATCHDOG_MS", 7), 7);
  ::unsetenv("FMMFFT_WATCHDOG_MS");
}

TEST(EnvRegistry, UnregisteredKnobIsHardError) {
  EXPECT_THROW((void)env::get("FMMFFT_NOT_A_KNOB"), fmmfft::Error);
  EXPECT_THROW((void)env::get_int("FMMFFT_NOT_A_KNOB", 0), fmmfft::Error);
}

TEST(EnvRegistry, DescribeListsEveryKnob) {
  const std::string table = env::describe();
  for (const auto& k : env::registry()) {
    EXPECT_NE(table.find(k.name), std::string::npos) << k.name;
    EXPECT_NE(table.find(k.desc), std::string::npos) << k.name;
  }
}

TEST(EnvRegistry, NoStrayGetenvInSources) {
  // Every FMMFFT_* environment read in the library must go through
  // obs::env; a stray std::getenv("FMMFFT_...") bypasses the registry.
  namespace fs = std::filesystem;
  const fs::path root = fs::path(FMMFFT_SOURCE_DIR) / "src";
  ASSERT_TRUE(fs::exists(root));
  std::vector<std::string> offenders;
  for (const auto& ent : fs::recursive_directory_iterator(root)) {
    if (!ent.is_regular_file()) continue;
    const auto ext = ent.path().extension().string();
    if (ext != ".cpp" && ext != ".hpp") continue;
    const auto fname = ent.path().filename();
    if (fname == "env.cpp" || fname == "env.hpp") continue;  // the registry itself
    std::ifstream is(ent.path());
    std::string line;
    int ln = 0;
    while (std::getline(is, line)) {
      ++ln;
      if (line.find("getenv") != std::string::npos &&
          line.find("FMMFFT_") != std::string::npos)
        offenders.push_back(ent.path().string() + ":" + std::to_string(ln) + ": " + line);
    }
  }
  EXPECT_TRUE(offenders.empty()) << "FMMFFT_* knob read outside obs::env:\n"
                                 << [&] {
                                      std::string s;
                                      for (const auto& o : offenders) s += o + "\n";
                                      return s;
                                    }();
}

// ---------------------------------------------------------------------------
// Watchdog

namespace {

/// Source whose progress is driven by the test.
struct TickSource : health::Source {
  std::atomic<std::uint64_t> ticks{0};
  const char* source_name() const override { return "test.tick"; }
  std::uint64_t progress() const override { return ticks.load(); }
  std::string describe_stall() const override { return "  tick source stalled"; }
};

}  // namespace

TEST(Watchdog, NoFalsePositiveWhileProgressing) {
  HealthQuiesce q;
  health::enable_watchdog(80);
  const std::uint64_t fires_before = health::watchdog_fires();
  {
    TickSource src;
    health::register_source(&src);
    // Slow but steady: each beat lands well inside the deadline.
    for (int i = 0; i < 12; ++i) {
      sleep_ms(25);
      src.ticks.fetch_add(1);
    }
    health::unregister_source(&src);
  }
  EXPECT_EQ(health::watchdog_fires(), fires_before);
}

TEST(Watchdog, FiresOnSilentSource) {
  HealthQuiesce q;
  health::enable_watchdog(50);
  const std::uint64_t fires_before = health::watchdog_fires();
  {
    TickSource src;
    health::register_source(&src);
    for (int i = 0; i < 100 && health::watchdog_fires() == fires_before; ++i) sleep_ms(10);
    health::unregister_source(&src);
  }
  EXPECT_GT(health::watchdog_fires(), fires_before);
  EXPECT_NE(health::last_verdict().find("test.tick"), std::string::npos);
  EXPECT_NE(health::last_verdict().find("tick source stalled"), std::string::npos);
}

TEST(Watchdog, InlineDriverStallIsAttributedToTaskAndLane) {
  // Mode::Serial drains the distributed driver's graph on the calling
  // thread; the graph is still the watchdog source, so a stall inside an
  // inline run names the task, its stage and device lane, and the work
  // blocked behind it.
  HealthQuiesce q;
  const std::string pm = "test_health.inline.postmortem.json";
  health::set_postmortem_path(pm);
  health::enable_watchdog(60);
  const std::uint64_t fires_before = health::watchdog_fires();
  const fmmfft::fmm::Params prm{1 << 12, 32, 4, 2, 18};
  std::vector<std::complex<double>> x((std::size_t)prm.n, {1.0, 0.5}), y(x.size());
  fmmfft::dist::DistFmmFft<std::complex<double>> plan(prm, 2);
  {
    fmmfft::exec::ScopedMode sm(fmmfft::exec::Mode::Serial);
    fmmfft::exec::inject_stall(0, 900);  // task 0: device 0's load
    plan.execute(x.data(), y.data());
  }
  EXPECT_GT(health::watchdog_fires(), fires_before);
  const std::string v = health::last_verdict();
  EXPECT_NE(v.find("exec.TaskGraph"), std::string::npos) << v;
  EXPECT_NE(v.find("stuck: task 0 'fmm:load d0'"), std::string::npos) << v;
  EXPECT_NE(v.find("stage 'fmm'"), std::string::npos) << v;
  EXPECT_NE(v.find("compute d0"), std::string::npos) << v;
  EXPECT_NE(v.find("blocked chain"), std::string::npos) << v;
  EXPECT_NE(v.find("'sync:comm-s 0->1'"), std::string::npos) << v;
  EXPECT_NE(read_file(pm).find("load d0"), std::string::npos);
  std::remove(pm.c_str());
}

TEST(Watchdog, InjectedGraphStallIsAttributedWithChain) {
  HealthQuiesce q;
  const std::string pm = "test_health.watchdog.postmortem.json";
  std::remove(pm.c_str());
  health::set_postmortem_path(pm);
  health::enable_watchdog(60);
  const std::uint64_t fires_before = health::watchdog_fires();

  DeviceLanes lanes(2);
  TaskGraph g(lanes.count());
  g.name_lanes(lanes);
  // stall -> chain of dependents across lanes; the stalled task blocks all.
  const TaskId stall =
      g.submit("stall d0", {lanes.compute(0), true, "fmm"}, [] {});
  const TaskId copy = g.submit("halo 0->1", {lanes.copy(0, 1), true, "sync"},
                               [] {}, {stall});
  g.submit("m2l d1", {lanes.compute(1), true, "fmm"}, [] {}, {copy});
  fmmfft::exec::inject_stall(stall, 900);

  ThreadPool pool(2);
  g.run(pool);  // completes after the injected stall elapses

  EXPECT_GT(health::watchdog_fires(), fires_before);
  const std::string v = health::last_verdict();
  EXPECT_NE(v.find("exec.TaskGraph"), std::string::npos) << v;
  EXPECT_NE(v.find("'fmm:stall d0'"), std::string::npos) << v;
  EXPECT_NE(v.find("stage 'fmm'"), std::string::npos) << v;
  EXPECT_NE(v.find("compute d0"), std::string::npos) << v;
  // The unfinished dependency chain behind the stuck task, lane-attributed.
  EXPECT_NE(v.find("blocked chain"), std::string::npos) << v;
  EXPECT_NE(v.find("'sync:halo 0->1'"), std::string::npos) << v;
  EXPECT_NE(v.find("copy 0->1"), std::string::npos) << v;

  // The watchdog emitted a postmortem naming the same stall.
  const std::string dump = read_file(pm);
  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(fmmfft::testing::JsonValidator(dump).valid());
  EXPECT_NE(dump.find("fmmfft.postmortem.v1"), std::string::npos);
  EXPECT_NE(dump.find("watchdog"), std::string::npos);
  EXPECT_NE(dump.find("stall d0"), std::string::npos);
  EXPECT_NE(dump.find("compute d0"), std::string::npos);
  std::remove(pm.c_str());
}

TEST(Watchdog, SlowButProgressingGraphDoesNotFire) {
  HealthQuiesce q;
  health::enable_watchdog(150);
  const std::uint64_t fires_before = health::watchdog_fires();
  TaskGraph g(1);
  // Each task is far slower than a poll interval, but every completion
  // advances the progress counter inside the deadline.
  for (int i = 0; i < 10; ++i)
    g.submit("slow " + std::to_string(i), {0, true, "t"}, [] { sleep_ms(50); });
  ThreadPool pool(2);
  g.run(pool);
  EXPECT_EQ(health::watchdog_fires(), fires_before);
}

// ---------------------------------------------------------------------------
// Postmortem

TEST(Postmortem, WriterEmitsValidSchema) {
  HealthQuiesce q;
  health::enable_flight(true);
  health::flight_clear();
  FMMFFT_FLIGHT(Mark, 1, 0, "pm-test");
  const std::string path = "test_health.postmortem.json";
  ASSERT_TRUE(health::write_postmortem(path, "unit_test", "synthetic verdict"));
  const std::string dump = read_file(path);
  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(fmmfft::testing::JsonValidator(dump).valid()) << dump.substr(0, 400);
  EXPECT_NE(dump.find("fmmfft.postmortem.v1"), std::string::npos);
  EXPECT_NE(dump.find("unit_test"), std::string::npos);
  EXPECT_NE(dump.find("synthetic verdict"), std::string::npos);
  EXPECT_NE(dump.find("pm-test"), std::string::npos);  // flight ring event
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  EXPECT_NE(dump.find("fmmfft.traffic.v1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Postmortem, DisarmedEmitsNothing) {
  HealthQuiesce q;
  health::arm_postmortem(false);
  EXPECT_EQ(health::emit_postmortem("unit_test", "nope"), "");
}

TEST(Postmortem, TaskExceptionEmitsLabeledDump) {
  HealthQuiesce q;
  const std::string pm = "test_health.exception.postmortem.json";
  std::remove(pm.c_str());
  health::set_postmortem_path(pm);
  health::arm_postmortem(true);

  DeviceLanes lanes(1);
  TaskGraph g(lanes.count());
  g.name_lanes(lanes);
  g.submit("boom", {lanes.compute(0), true, "fft"},
           [] { throw std::runtime_error("kaput"); });
  ThreadPool pool(1);
  std::string what;
  try {
    g.run(pool);
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  // Satellite: the rethrown error names the failing task's labels.
  EXPECT_NE(what.find("'fft:boom'"), std::string::npos) << what;
  EXPECT_NE(what.find("stage 'fft'"), std::string::npos) << what;
  EXPECT_NE(what.find("compute d0"), std::string::npos) << what;
  EXPECT_NE(what.find("kaput"), std::string::npos) << what;

  const std::string dump = read_file(pm);
  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(fmmfft::testing::JsonValidator(dump).valid());
  EXPECT_NE(dump.find("task_exception"), std::string::npos);
  EXPECT_NE(dump.find("kaput"), std::string::npos);
  std::remove(pm.c_str());
}

TEST(Postmortem, SignalDumpPathIsValidJson) {
  HealthQuiesce q;
  health::enable_flight(true);
  health::flight_clear();
  FMMFFT_FLIGHT(TaskStart, 9, 1, "sig\"quote");  // exercises tag sanitizing
  const std::string pm = "test_health.sigdump.json";
  std::remove(pm.c_str());
  health::set_postmortem_path(pm);
  health::detail::write_signal_dump(SIGABRT);
  const std::string dump = read_file(pm);
  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(fmmfft::testing::JsonValidator(dump).valid()) << dump.substr(0, 400);
  EXPECT_NE(dump.find("\"cause\":\"signal\""), std::string::npos);
  EXPECT_NE(dump.find("SIGABRT"), std::string::npos);
  EXPECT_NE(dump.find("task_start"), std::string::npos);
  std::remove(pm.c_str());
}

#if defined(GTEST_HAS_DEATH_TEST) && !defined(FMMFFT_TSAN_BUILD)
TEST(PostmortemDeathTest, FatalSignalWritesDump) {
  HealthQuiesce q;
  health::enable_flight(true);
  const std::string pm = "test_health.death.postmortem.json";
  std::remove(pm.c_str());
  health::set_postmortem_path(pm);
  health::install_crash_handlers();
  EXPECT_DEATH(std::abort(), "");
  // The death-test child inherited the handlers and wrote the dump into our
  // working directory before terminating.
  const std::string dump = read_file(pm);
  ASSERT_FALSE(dump.empty());
  EXPECT_TRUE(fmmfft::testing::JsonValidator(dump).valid());
  EXPECT_NE(dump.find("\"cause\":\"signal\""), std::string::npos);
  std::remove(pm.c_str());
}
#endif
