// Integration tests for the batched FMM engine: the P-1 interleaved FMMs
// (plus post-processing) must match the dense Ĥ_{M,P} application to the
// accuracy implied by the Chebyshev order Q.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/reference.hpp"
#include "fmm/engine.hpp"
#include "fmm/operators.hpp"
#include "kernel_oracles.hpp"

namespace fmmfft::fmm {
namespace {

using Cx = std::complex<double>;

/// Run the engine on complex input and emulate POST, returning Ĥx.
std::vector<Cx> engine_apply_hhat(const Params& prm, const std::vector<Cx>& x) {
  Engine<double> eng(prm, 2);
  std::memcpy(eng.source_box(0), x.data(), sizeof(Cx) * x.size());
  eng.run_single_node();
  const double* t = eng.target_box(0);
  const double* r = eng.reduction();
  std::vector<Cx> y(x.size());
  const index_t p_total = prm.p, m = prm.m();
  for (index_t mg = 0; mg < m; ++mg)
    for (index_t p = 0; p < p_total; ++p) {
      Cx tv(t[2 * (p + p_total * mg)], t[2 * (p + p_total * mg) + 1]);
      if (p == 0) {
        y[(std::size_t)(p + p_total * mg)] = tv;
      } else {
        Cx rp(r[2 * (p - 1)], r[2 * (p - 1) + 1]);
        y[(std::size_t)(p + p_total * mg)] = rho(p, p_total, m) * (tv + Cx(0, 1) * rp);
      }
    }
  return y;
}

struct Case {
  index_t n, p, ml;
  int b, q;
  double tol;
};

class EngineVsDense : public ::testing::TestWithParam<Case> {};

TEST_P(EngineVsDense, MatchesDenseHhat) {
  const auto c = GetParam();
  Params prm{c.n, c.p, c.ml, c.b, c.q};
  prm.validate();
  std::vector<Cx> x(static_cast<std::size_t>(c.n));
  fill_uniform(x.data(), c.n, 77);
  auto got = engine_apply_hhat(prm, x);
  std::vector<Cx> expect(x.size());
  core::apply_hhat_dense(prm, x.data(), expect.data());
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), c.n), c.tol) << prm.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, EngineVsDense,
    ::testing::Values(
        // L == B: near field + base-level M2L only (no tree traversal).
        Case{1 << 10, 32, 8, 2, 8, 1e-6},
        Case{1 << 10, 32, 4, 3, 10, 1e-8},
        // Deep trees exercising M2M/M2L-l/L2L.
        Case{1 << 12, 32, 4, 2, 12, 1e-9},
        Case{1 << 12, 32, 2, 3, 12, 1e-9},
        Case{1 << 14, 64, 8, 2, 14, 1e-11},
        Case{1 << 14, 64, 4, 4, 14, 1e-11},
        // Larger P (more FMMs, smaller M).
        Case{1 << 14, 256, 4, 2, 12, 1e-9},
        // M_L = 1: every point its own leaf.
        Case{1 << 10, 64, 1, 2, 6, 5e-4},
        // Base level deeper than 2 with all-pairs M2L over 16 boxes.
        Case{1 << 14, 64, 4, 4, 10, 1e-7}));

TEST(Engine, RealInputMatchesComplexReal) {
  // C = 1 pipeline must agree with the real part flowing through C = 2.
  Params prm{1 << 12, 32, 4, 2, 12};
  std::vector<double> xr(1 << 12);
  fill_uniform(xr.data(), xr.size(), 5);
  std::vector<Cx> xc(xr.size());
  for (std::size_t i = 0; i < xr.size(); ++i) xc[i] = Cx(xr[i], 0.0);

  Engine<double> eng(prm, 1);
  std::memcpy(eng.source_box(0), xr.data(), sizeof(double) * xr.size());
  eng.run_single_node();

  Engine<double> eng2(prm, 2);
  std::memcpy(eng2.source_box(0), xc.data(), sizeof(Cx) * xc.size());
  eng2.run_single_node();

  const double* t1 = eng.target_box(0);
  const double* t2 = eng2.target_box(0);
  const index_t n = prm.n;
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(t1[i], t2[2 * i], 1e-12);         // real parts agree
    EXPECT_NEAR(t2[2 * i + 1], 0.0, 1e-12);       // imag stays zero
  }
  const double* r1 = eng.reduction();
  const double* r2 = eng2.reduction();
  for (index_t p = 0; p < prm.p - 1; ++p) EXPECT_NEAR(r1[p], r2[2 * p], 1e-10);
}

TEST(Engine, ReductionEqualsSourceSums) {
  // §4.8: the base multipoles preserve column sums, so r_{p-1} = sum_m,b S.
  Params prm{1 << 12, 64, 4, 2, 10};
  std::vector<Cx> x(static_cast<std::size_t>(prm.n));
  fill_uniform(x.data(), prm.n, 9);
  Engine<double> eng(prm, 2);
  std::memcpy(eng.source_box(0), x.data(), sizeof(Cx) * x.size());
  eng.run_single_node();
  const double* r = eng.reduction();
  const index_t m = prm.m();
  for (index_t p = 1; p < prm.p; ++p) {
    Cx sum = 0;
    for (index_t k = 0; k < m; ++k) sum += x[(std::size_t)(p + k * prm.p)];
    EXPECT_NEAR(r[2 * (p - 1)], sum.real(), 1e-9 * m) << "p=" << p;
    EXPECT_NEAR(r[2 * (p - 1) + 1], sum.imag(), 1e-9 * m);
  }
}

TEST(Engine, ErrorDecreasesWithQ) {
  Params base{1 << 12, 32, 8, 2, 4};
  std::vector<Cx> x(static_cast<std::size_t>(base.n));
  fill_uniform(x.data(), base.n, 12);
  std::vector<Cx> expect(x.size());
  core::apply_hhat_dense(base, x.data(), expect.data());
  double prev = 1e9;
  for (int q : {4, 8, 12, 16}) {
    Params prm = base;
    prm.q = q;
    auto got = engine_apply_hhat(prm, x);
    double err = rel_l2_error(got.data(), expect.data(), prm.n);
    EXPECT_LT(err, prev) << "q=" << q;
    prev = err;
  }
  EXPECT_LT(prev, 1e-12);
}

TEST(Engine, LinearityOfHhat) {
  Params prm{1 << 10, 32, 4, 2, 10};
  std::vector<Cx> a(static_cast<std::size_t>(prm.n)), b(a.size()), sum(a.size());
  fill_uniform(a.data(), prm.n, 21);
  fill_uniform(b.data(), prm.n, 22);
  for (std::size_t i = 0; i < a.size(); ++i) sum[i] = a[i] + 2.0 * b[i];
  auto ya = engine_apply_hhat(prm, a);
  auto yb = engine_apply_hhat(prm, b);
  auto ys = engine_apply_hhat(prm, sum);
  std::vector<Cx> combo(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) combo[i] = ya[i] + 2.0 * yb[i];
  EXPECT_LT(rel_l2_error(ys.data(), combo.data(), prm.n), 1e-11);
}

TEST(Engine, StatsRecordExpectedLaunchCensus) {
  // Fig. 2 accounting: S2M 1, M2M L-B, S2T 1, M2L-l (L-B), M2L-B 1,
  // REDUCE 1, L2L L-B, L2T 1 compute launches.
  Params prm{1 << 14, 64, 4, 2, 8};  // M=256, L=6, B=2
  Engine<double> eng(prm, 2);
  std::vector<Cx> x(static_cast<std::size_t>(prm.n));
  fill_uniform(x.data(), prm.n, 1);
  std::memcpy(eng.source_box(0), x.data(), sizeof(Cx) * x.size());
  eng.run_single_node();
  int s2m = 0, m2m = 0, s2t = 0, m2ll = 0, m2lb = 0, red = 0, l2l = 0, l2t = 0;
  for (const auto& st : eng.stats()) {
    if (st.name == "S2M") ++s2m;
    else if (st.name.rfind("M2M-", 0) == 0) ++m2m;
    else if (st.name == "S2T") ++s2t;
    else if (st.name == "M2L-B") ++m2lb;
    else if (st.name.rfind("M2L-", 0) == 0) ++m2ll;
    else if (st.name == "REDUCE") ++red;
    else if (st.name.rfind("L2L-", 0) == 0) ++l2l;
    else if (st.name == "L2T") ++l2t;
  }
  const int depth = prm.l() - prm.b;  // 4
  EXPECT_EQ(s2m, 1);
  EXPECT_EQ(m2m, depth);
  EXPECT_EQ(s2t, 1);
  EXPECT_EQ(m2ll, depth);
  EXPECT_EQ(m2lb, 1);
  EXPECT_EQ(red, 1);
  EXPECT_EQ(l2l, depth);
  EXPECT_EQ(l2t, 1);
}

TEST(Engine, StatsFlopFormulas) {
  // Exact per-stage flop counts (§5.1 with the engine's conventions).
  Params prm{1 << 12, 32, 8, 2, 8};  // M=128, L=4
  const int c = 2;
  Engine<double> eng(prm, c);
  std::vector<Cx> x(static_cast<std::size_t>(prm.n));
  fill_uniform(x.data(), prm.n, 2);
  std::memcpy(eng.source_box(0), x.data(), sizeof(Cx) * x.size());
  eng.run_single_node();
  const double cpm = c * (prm.p - 1), cp = c * prm.p;
  for (const auto& st : eng.stats()) {
    if (st.name == "S2M") {
      EXPECT_DOUBLE_EQ(st.flops, 2.0 * cpm * prm.q * prm.ml * prm.leaves());
    }
    if (st.name == "S2T") {
      EXPECT_DOUBLE_EQ(st.flops, 6.0 * prm.ml * prm.ml * cp * prm.leaves());
    }
    if (st.name == "M2L-B") {
      EXPECT_DOUBLE_EQ(st.flops,
                       2.0 * (prm.boxes(prm.b) - 3) * prm.q * prm.q * cpm * prm.boxes(prm.b));
    }
  }
}

// -- Fused/SIMD kernel identity ----------------------------------------------
// The register-tiled S2T and the box-tiled M2L promise BIT-identical
// outputs to their oracles (same per-element accumulation order): S2T to
// the scalar s2t_oracle, M2L to the per-separation m2l_oracle passes. Two engines get identical tensor state — sources with
// halos, every multipole level with halo boxes, the global base buffer —
// then one runs the fast kernels and the other the oracles; every output
// tensor must memcmp equal.

template <typename T>
void prime_pair(Engine<T>& ea, Engine<T>& eb) {
  const Params& prm = ea.params();
  const index_t se = ea.source_box_elems(), ee = ea.expansion_box_elems();
  for (index_t b = -1; b <= ea.local_leaves(); ++b) {
    const std::uint64_t seed = 900 + std::uint64_t(b + 1);
    fill_uniform(ea.source_box(b), se, seed);
    fill_uniform(eb.source_box(b), se, seed);
  }
  ea.zero();
  eb.zero();
  for (int lev = prm.b; lev <= prm.l(); ++lev) {
    const index_t b_lo = lev == prm.b ? 0 : -2;
    const index_t b_hi = lev == prm.b ? prm.boxes(prm.b) : ea.local_boxes(lev) + 2;
    for (index_t b = b_lo; b < b_hi; ++b) {
      const std::uint64_t seed = 5000 * std::uint64_t(lev) + std::uint64_t(b + 2);
      fill_uniform(ea.multipole_box(lev, b), ee, seed);
      fill_uniform(eb.multipole_box(lev, b), ee, seed);
    }
  }
}

/// Run S2T on `ea` and the scalar oracle on `eb` (identically primed).
template <typename T>
void expect_s2t_matches(Engine<T>& ea, Engine<T>& eb, index_t g, index_t rank) {
  ea.s2t();
  s2t_oracle(eb);
  const std::size_t tbytes = sizeof(T) * std::size_t(ea.source_box_elems() * ea.local_leaves());
  EXPECT_EQ(0, std::memcmp(ea.target_box(0), eb.target_box(0), tbytes))
      << ea.params().to_string() << " C=" << ea.components() << " g=" << g << " rank=" << rank
      << " fp" << 8 * sizeof(T) << " (S2T)";
}

template <typename T = double>
void expect_kernels_match(const Params& prm, index_t g, index_t rank, int components = 2) {
  Engine<T> ea(prm, components, g, rank), eb(prm, components, g, rank);
  prime_pair(ea, eb);
  expect_s2t_matches(ea, eb, g, rank);
  for (int lev = prm.l(); lev > prm.b; --lev) {
    ea.m2l_level(lev);
    m2l_oracle(eb, lev);
  }
  ea.m2l_base();
  m2l_oracle(eb, prm.b);
  for (int lev = prm.b; lev <= prm.l(); ++lev) {
    const std::size_t lbytes =
        sizeof(T) * std::size_t(ea.expansion_box_elems() * ea.local_boxes(lev));
    EXPECT_EQ(0, std::memcmp(ea.local_box(lev, 0), eb.local_box(lev, 0), lbytes))
        << prm.to_string() << " C=" << components << " g=" << g << " rank=" << rank << " fp"
        << 8 * sizeof(T) << " (M2L level " << lev << ")";
  }
}

/// S2T alone against the oracle, on every rank of a g-device split.
template <typename T>
void expect_s2t_matches_oracle(const Params& prm, int components, index_t g) {
  for (index_t rank = 0; rank < g; ++rank) {
    Engine<T> ea(prm, components, g, rank), eb(prm, components, g, rank);
    prime_pair(ea, eb);
    expect_s2t_matches(ea, eb, g, rank);
  }
}

TEST(EngineKernelIdentity, FusedMatchesReferenceAcrossConfigs) {
  // Deep tree with the small precomputed base (the e2e CD shape, scaled).
  expect_kernels_match(Params{1 << 14, 64, 4, 2, 10}, 1, 0);
  // Big base: 2^B = 64 boxes, 61 separations — the LRU-backed fused sweep.
  expect_kernels_match(Params{1 << 14, 64, 4, 6, 10}, 1, 0);
}

TEST(EngineKernelIdentity, FusedMatchesReferenceOnDeviceSlabs) {
  // Per-device slabs shift box offsets and parities; every rank must match.
  const Params prm{index_t(1) << 16, 64, 8, 3, 14};
  for (index_t g : {index_t(1), index_t(2), index_t(4)})
    for (index_t rank = 0; rank < g; ++rank) expect_kernels_match(prm, g, rank);
}

TEST(EngineKernelIdentity, BaseSeparationsBeyondLruCapacity) {
  // 2^B = 512 base boxes -> 509 separations, more than the operator LRU can
  // pin at once: m2l_base falls back to one pass per separation and must
  // still match the reference bit for bit.
  expect_kernels_match(Params{4096, 4, 2, 9, 4}, 1, 0);
  expect_kernels_match<float>(Params{4096, 4, 2, 9, 4}, 1, 0);
}

TEST(EngineKernelIdentity, M2lMatchesOracleAcrossTileTails) {
  // The box-tiled M2L against the scalar oracle at every tile tail, fp64 and
  // fp32, on every rank of G = 1, 2, 4. Q = 4 fills one 4-row tile, Q = 10
  // and 17 leave a row tail. C·(P-1) = 3, 31, 62 leaves pc tails of the 32 B,
  // 16 B and scalar steps in both widths. Per-parity box counts run 2..128
  // and the base level's 8 / G boxes 2..8: counts below the box tile (4 on
  // AVX-512, else 2) run one-box tiles only, larger ones full tiles.
  for (const index_t p : {index_t(4), index_t(32)})
    for (const int c : {1, 2}) {
      if (p == 4 && c == 2) continue;
      for (const int q : {4, 10, 17}) {
        const Params prm{p * 4 * 256, p, 4, 3, q};
        for (const index_t g : {index_t(1), index_t(2), index_t(4)})
          for (index_t rank = 0; rank < g; ++rank) {
            expect_kernels_match<double>(prm, g, rank, c);
            expect_kernels_match<float>(prm, g, rank, c);
          }
      }
    }
}

TEST(EngineKernelIdentity, S2tMatchesOracleAcrossShapes) {
  // M_L in {1, 2} runs only one-row tiles (the i-tail), 4 one full row
  // tile, 64 the benchmark plan's sixteen. C·P = 64 fills whole wide pc
  // chunks; C·P = 32 (fp32 on AVX-512) and C·P = 4 fall back to the
  // one-vector and scalar chunks of the pc-tail.
  for (const index_t ml : {index_t(1), index_t(2), index_t(4), index_t(64)})
    for (const int c : {1, 2}) {
      const Params prm{32 * ml * 16, 32, ml, 2, 8};
      expect_s2t_matches_oracle<double>(prm, c, 1);
      expect_s2t_matches_oracle<float>(prm, c, 1);
    }
  for (const index_t ml : {index_t(1), index_t(4), index_t(64)}) {
    const Params narrow{4 * ml * 16, 4, ml, 2, 8};
    expect_s2t_matches_oracle<double>(narrow, 1, 1);
    expect_s2t_matches_oracle<float>(narrow, 1, 1);
  }
}

TEST(EngineKernelIdentity, S2tMatchesOracleOnDeviceSlabs) {
  // The benchmark plan's P = 32, M_L = 64 and the narrow C = 1, P = 4 pc
  // tail, split over G devices: every rank's slab, halo boxes included.
  const Params paper{index_t(32) * 64 * 8, 32, 64, 2, 8};
  const Params narrow{index_t(4) * 4 * 16, 4, 4, 2, 8};
  for (const index_t g : {index_t(1), index_t(2), index_t(4)})
    for (const int c : {1, 2}) {
      expect_s2t_matches_oracle<double>(paper, c, g);
      expect_s2t_matches_oracle<float>(paper, c, g);
      expect_s2t_matches_oracle<double>(narrow, c, g);
      expect_s2t_matches_oracle<float>(narrow, c, g);
    }
}

TEST(EngineKernelIdentity, FusedMatchesReferenceInFp32) {
  // The mixed-precision translation pipeline runs Engine<float>: the fused
  // kernels must match their oracles there too, for real and complex input.
  expect_kernels_match<float>(Params{1 << 14, 64, 4, 2, 10}, 1, 0);
  expect_kernels_match<float>(Params{1 << 14, 64, 4, 2, 10}, 1, 0, /*components=*/1);
}

TEST(Engine, RejectsInvalidConfigs) {
  Params prm{1 << 12, 32, 8, 2, 8};
  EXPECT_THROW(Engine<double>(prm, 3), Error);            // bad component count
  EXPECT_THROW(Engine<double>(prm, 2, 2, 2), Error);      // rank >= g
  Params bad = prm;
  bad.b = 9;
  EXPECT_THROW(Engine<double>(bad, 2), Error);            // B > L
}

}  // namespace
}  // namespace fmmfft::fmm
