// Tests for the persistent tuning cache.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "model/counts.hpp"
#include "model/tuning.hpp"

namespace fmmfft::model {
namespace {

TEST(TuningCache, StoreLookupRoundTrip) {
  TuningCache cache;
  TuningCache::Key key{1 << 20, 2, Scalar::C64, "2xP100-NVLink"};
  EXPECT_FALSE(cache.lookup(key).has_value());
  fmm::Params prm{1 << 20, 256, 16, 3, 16};
  cache.store(key, prm);
  auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->p, 256);
  EXPECT_EQ(hit->ml, 16);
  EXPECT_EQ(cache.size(), 1u);
  // A different precision is a different key.
  TuningCache::Key key2 = key;
  key2.scalar = Scalar::C32;
  EXPECT_FALSE(cache.lookup(key2).has_value());
}

TEST(TuningCache, SaveLoadPreservesRecords) {
  TuningCache cache;
  cache.store({1 << 16, 2, Scalar::C64, "2xP100-NVLink"}, {1 << 16, 128, 16, 3, 16});
  cache.store({1 << 18, 8, Scalar::C32, "8xP100-NVLink"}, {1 << 18, 256, 8, 3, 8});
  std::stringstream ss;
  cache.save(ss);
  TuningCache loaded;
  loaded.load(ss);
  EXPECT_EQ(loaded.size(), 2u);
  auto hit = loaded.lookup({1 << 18, 8, Scalar::C32, "8xP100-NVLink"});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->p, 256);
  EXPECT_EQ(hit->b, 3);
}

TEST(TuningCache, LoadSkipsCommentsAndRejectsGarbage) {
  {
    std::stringstream ss("# header\n\n65536 2 c64 arch : 128 16 3 16\n");
    TuningCache cache;
    cache.load(ss);
    EXPECT_EQ(cache.size(), 1u);
  }
  {
    std::stringstream ss("not a record\n");
    TuningCache cache;
    EXPECT_THROW(cache.load(ss), Error);
  }
  {
    // Invalid parameters must be rejected at load time.
    std::stringstream ss("65536 2 c64 arch : 7 16 3 16\n");  // P=7 not pow2
    TuningCache cache;
    EXPECT_THROW(cache.load(ss), Error);
  }
}

TEST(TuningCache, RejectsMismatchedSize) {
  TuningCache cache;
  EXPECT_THROW(cache.store({1 << 20, 2, Scalar::C64, "a"}, fmm::Params{1 << 18, 256, 16, 3, 16}),
               Error);
}

TEST(TuningCache, CachedSearchHitsAfterFirstCall) {
  TuningCache cache;
  const Workload w{1 << 18, true, true};
  auto arch = p100_nvlink(2);
  auto first = search_best_params_cached(cache, w.n, 2, w, arch, 16);
  EXPECT_EQ(cache.size(), 1u);
  // Poison the cache to prove the second call is a pure lookup.
  fmm::Params marker{1 << 18, 64, 16, 3, 16};
  cache.store({w.n, 2, Scalar::C64, arch.name}, marker);
  auto second = search_best_params_cached(cache, w.n, 2, w, arch, 16);
  EXPECT_EQ(second.p, 64);
  EXPECT_TRUE(first.is_admissible(2));
}

TEST(Decomp, ParseRoundTrip) {
  EXPECT_EQ(parse_decomp("auto"), Decomp::Auto);
  EXPECT_EQ(parse_decomp("slab"), Decomp::Slab);
  EXPECT_EQ(parse_decomp("pencil"), Decomp::Pencil);
  EXPECT_THROW(parse_decomp("brick"), Error);
  EXPECT_STREQ(to_string(Decomp::Pencil), "pencil");
}

TEST(Decomp, ParseGrid) {
  EXPECT_EQ(parse_grid("2x4"), (GridShape{2, 4}));
  EXPECT_EQ(parse_grid("16X1"), (GridShape{16, 1}));
  EXPECT_THROW(parse_grid("2x"), Error);
  EXPECT_THROW(parse_grid("x4"), Error);
  EXPECT_THROW(parse_grid("0x4"), Error);
  EXPECT_THROW(parse_grid("2x4x8"), Error);
  EXPECT_THROW(parse_grid("grid"), Error);
}

TEST(Decomp, DefaultGrid3dRespectsDivisibility) {
  // 16 devices on a 64^3 grid: 4x4 divides everything.
  EXPECT_EQ(default_grid3d(16, 64, 64, 64), (GridShape{4, 4}));
  // n2 = 8 forces pr <= 8; squarest feasible for g = 32 on 16x64x8 needs
  // pr | 8 and pc | 16: 4x8 works (pr=4 ≤ 8, pc=8 ≤ 16, n1 % both == 0).
  const GridShape gs = default_grid3d(32, 16, 64, 8);
  EXPECT_TRUE(pencil_feasible_3d(16, 64, 8, gs));
  // Infeasible everywhere -> unspecified.
  EXPECT_FALSE(default_grid3d(16, 2, 2, 2).specified());
}

TEST(Decomp, ChooseForcedAndInfeasibleThrows) {
  const Workload w{64 * 64 * 64, true, true};
  const auto arch = p100_nvlink(8);
  auto d = choose_decomp(Decomp::Pencil, {2, 4}, 64, 64, 64, 8, w, arch);
  EXPECT_EQ(d.chosen, Decomp::Pencil);
  EXPECT_EQ(d.grid, (GridShape{2, 4}));
  EXPECT_FALSE(d.model_decided);
  // Forcing an infeasible layout is a hard error, not a silent fallback.
  EXPECT_THROW(choose_decomp(Decomp::Pencil, {3, 3}, 64, 64, 64, 8, w, arch), Error);
  EXPECT_THROW(choose_decomp(Decomp::Slab, {}, 64, 64, 63, 8, w, arch), Error);
}

TEST(Decomp, AutoPicksPencilBeyondCrossover) {
  // In 3D a 1x2 "pencil" at G = 2 moves the same exchange bytes as the slab
  // but folds the local i0<->i1 reorientation into its row hop, so the
  // model prices it strictly cheaper — no tie to break. At G = 16 the 4x4
  // grid wins outright.
  const Workload w{64 * 64 * 64, true, true};
  auto d2 = choose_decomp(Decomp::Auto, {}, 64, 64, 64, 2, w, p100_nvlink(2));
  EXPECT_TRUE(d2.model_decided);
  EXPECT_EQ(d2.chosen, Decomp::Pencil);
  EXPECT_EQ(d2.grid, (GridShape{1, 2}));
  EXPECT_LT(d2.pencil_seconds, d2.slab_seconds);
  auto d16 = choose_decomp(Decomp::Auto, {}, 64, 64, 64, 16, w, p100_nvlink(16));
  EXPECT_EQ(d16.chosen, Decomp::Pencil);
  EXPECT_EQ(d16.grid, (GridShape{4, 4}));
  EXPECT_LT(d16.pencil_seconds, d16.slab_seconds);
}

TEST(Decomp, AutoFallsBackWhenOnlyOneFeasible) {
  const Workload w{16 * 64 * 8, true, true};
  // g = 32 > n2 = 8: slab infeasible, pencil must carry it.
  auto d = choose_decomp(Decomp::Auto, {}, 16, 64, 8, 32, w, p100_nvlink(32));
  EXPECT_EQ(d.chosen, Decomp::Pencil);
  EXPECT_FALSE(d.slab_feasible);
  // Nothing feasible at all -> hard error.
  EXPECT_THROW(choose_decomp(Decomp::Auto, {}, 2, 2, 2, 16, w, p100_nvlink(16)), Error);
}

TEST(Decomp, PencilTradesMessageCountForBytes) {
  // The pencil exchange's per-device volume is 2·(√G-1)/√G·N/G — up to 2×
  // the slab's (G-1)/G·N/G, each element moving twice. What it buys is the
  // partner count: 2(√G-1) messages of N/(G·√G) elements instead of G-1
  // messages of N/G² — so on a latency-bearing link the two-phase exchange
  // is modeled faster once G outgrows the crossover.
  const double n = 1 << 24, eb = 16.0;
  for (int g : {4, 16, 64}) {
    const int s = int(std::sqrt(double(g)));
    const double slab = slab_a2a_bytes_per_device(n, eb, g);
    const double pencil = pencil_a2a_bytes_per_device(n, eb, s, s);
    EXPECT_DOUBLE_EQ(pencil, 2.0 * double(s - 1) / double(s) * n / double(g) * eb)
        << "g=" << g;
    EXPECT_LE(pencil, 2.0 * slab * double(g) / double(g - 1)) << "g=" << g;
    // Latency-dominated regime: (G-1) serialized launches lose to 2(√G-1).
    ArchParams arch = p100_nvlink(g);
    arch.link_latency = 1e-3;  // exaggerate so bandwidth terms vanish
    EXPECT_LT(pencil_a2a_seconds(n, eb, s, s, arch), slab_a2a_seconds(n, eb, arch))
        << "g=" << g;
  }
}

}  // namespace
}  // namespace fmmfft::model
