// Tests for the distributed layer: collectives over the fabric, the
// three-transpose baseline 1D FFT, the one-transpose 2D FFT, and the
// distributed FMM-FFT — all validated against exact references and against
// the single-node pipeline, plus §5.2 communication-volume checks.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "common/math.hpp"
#include "common/permute.hpp"
#include "common/rng.hpp"
#include "core/fmmfft.hpp"
#include "core/reference.hpp"
#include "dist/collectives.hpp"
#include "dist/dfft.hpp"
#include "dist/dfmmfft.hpp"
#include "dist_oracles.hpp"
#include "exec/executor.hpp"
#include "model/counts.hpp"

namespace fmmfft::dist {
namespace {

using Cd = std::complex<double>;

// CI runs one leg of the suite under FMMFFT_PRECISION=mixed; plans built
// with the ambient default then carry the fp32 translation envelope and
// ship ".f32"-keyed halo payloads at half width.
bool ambient_mixed() { return fmm::default_precision() == fmm::Precision::Mixed; }

TEST(Collectives, AllToAllMatchesPermuteMP) {
  const index_t m = 16, p = 8;
  for (int g : {1, 2, 4, 8}) {
    sim::Fabric fabric(g);
    std::vector<double> x(m * p), expect(m * p);
    fill_uniform(x.data(), m * p, g);
    permute_mp(x.data(), expect.data(), m, p);
    const index_t slab = m * p / g;
    std::vector<Buffer<double>> ain, aout;
    std::vector<double*> in, out;
    for (int r = 0; r < g; ++r) {
      ain.emplace_back(slab);
      aout.emplace_back(slab);
      std::copy_n(x.data() + r * slab, slab, ain.back().data());
    }
    for (int r = 0; r < g; ++r) {
      in.push_back(ain[(std::size_t)r].data());
      out.push_back(aout[(std::size_t)r].data());
    }
    all_to_all_permute_mp(fabric, in, out, m, p, "t");
    for (int r = 0; r < g; ++r)
      for (index_t i = 0; i < slab; ++i)
        EXPECT_EQ(out[(std::size_t)r][i], expect[(std::size_t)(r * slab + i)])
            << "g=" << g << " r=" << r << " i=" << i;
    // Traffic: every ordered pair exchanges slab/g elements.
    EXPECT_DOUBLE_EQ(fabric.total_bytes(), double(g) * (g - 1) * (slab / g) * sizeof(double));
  }
}

TEST(Collectives, FusedMatchesStagedBitIdentical) {
  // The fused zero-copy all-to-all must reproduce the staged
  // pack/copy/unpack reference bit-for-bit at every device count, with
  // identical fabric accounting (same per-pair payloads, same tags).
  for (int g : {1, 2, 4}) {
    for (auto [m, p] : {std::pair<index_t, index_t>{16, 8}, {8, 16}, {64, 4}, {4, 64}}) {
      sim::Fabric fab_fused(g), fab_staged(g);
      std::vector<double> x(std::size_t(m * p));
      fill_uniform(x.data(), m * p, 31 + g);
      const index_t slab = m * p / g;
      std::vector<double> yf(x.size(), -1.0), ys(x.size(), -2.0);
      std::vector<double*> in, of, os;
      for (int r = 0; r < g; ++r) {
        in.push_back(x.data() + r * slab);
        of.push_back(yf.data() + r * slab);
        os.push_back(ys.data() + r * slab);
      }
      all_to_all_permute_mp(fab_fused, in, of, m, p, "A2A-EQ");
      all_to_all_permute_mp_staged(fab_staged, in, os, m, p, "A2A-EQ");
      EXPECT_EQ(yf, ys) << "g=" << g << " m=" << m << " p=" << p;
      // Same messages on the wire: pair-by-pair byte totals agree.
      EXPECT_DOUBLE_EQ(fab_fused.total_bytes(), fab_staged.total_bytes());
      for (int r = 0; r < g; ++r)
        EXPECT_DOUBLE_EQ(fab_fused.bytes_sent_by(r), fab_staged.bytes_sent_by(r));
      EXPECT_DOUBLE_EQ(fab_fused.bytes_with_tag("A2A-EQ"), fab_staged.bytes_with_tag("A2A-EQ"));
    }
  }
}

TEST(Collectives, HaloExchangeRing) {
  const int g = 4;
  const index_t h = 3;
  sim::Fabric fabric(g);
  // interior[r] = r*100 + k
  std::vector<std::vector<double>> interior((std::size_t)g, std::vector<double>(10));
  std::vector<std::vector<double>> lo((std::size_t)g, std::vector<double>(h)),
      hi((std::size_t)g, std::vector<double>(h));
  std::vector<const double*> lo_src, hi_src;
  std::vector<double*> lo_dst, hi_dst;
  for (int r = 0; r < g; ++r) {
    std::iota(interior[(std::size_t)r].begin(), interior[(std::size_t)r].end(), r * 100.0);
    lo_src.push_back(interior[(std::size_t)r].data());
    hi_src.push_back(interior[(std::size_t)r].data() + 10 - h);
    lo_dst.push_back(lo[(std::size_t)r].data());
    hi_dst.push_back(hi[(std::size_t)r].data());
  }
  halo_exchange_ring(fabric, lo_src, hi_src, lo_dst, hi_dst, h, "halo");
  for (int r = 0; r < g; ++r) {
    const int left = (r + g - 1) % g, right = (r + 1) % g;
    for (index_t k = 0; k < h; ++k) {
      EXPECT_EQ(lo[(std::size_t)r][(std::size_t)k], left * 100.0 + 7 + k);
      EXPECT_EQ(hi[(std::size_t)r][(std::size_t)k], right * 100.0 + k);
    }
  }
  EXPECT_DOUBLE_EQ(fabric.total_bytes(), g * 2.0 * h * sizeof(double));
}

TEST(Collectives, Allgather) {
  const int g = 4;
  const index_t slab = 5;
  sim::Fabric fabric(g);
  std::vector<std::vector<double>> src((std::size_t)g, std::vector<double>(slab)),
      dst((std::size_t)g, std::vector<double>(slab * g));
  std::vector<const double*> sp;
  std::vector<double*> dp;
  for (int r = 0; r < g; ++r) {
    std::iota(src[(std::size_t)r].begin(), src[(std::size_t)r].end(), r * 10.0);
    sp.push_back(src[(std::size_t)r].data());
    dp.push_back(dst[(std::size_t)r].data());
  }
  allgather(fabric, sp, dp, slab, "ag");
  for (int r = 0; r < g; ++r)
    for (int rr = 0; rr < g; ++rr)
      for (index_t k = 0; k < slab; ++k)
        EXPECT_EQ(dst[(std::size_t)r][(std::size_t)(rr * slab + k)], rr * 10.0 + k);
  EXPECT_DOUBLE_EQ(fabric.total_bytes(), g * (g - 1.0) * slab * sizeof(double));
}

class Baseline1dSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Baseline1dSizes, MatchesExactFft) {
  auto [lg_n, g] = GetParam();
  const index_t n = index_t(1) << lg_n;
  std::vector<Cd> x(static_cast<std::size_t>(n)), got(x.size()), expect(x.size());
  fill_uniform(x.data(), n, lg_n * 10 + g);
  DistFft1d<double> fftd(n, g);
  fftd.execute(x.data(), got.data());
  core::exact_fft(n, x.data(), expect.data());
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), n), 1e-12)
      << "n=" << n << " g=" << g << " M=" << fftd.factor_m() << " P=" << fftd.factor_p();
}

INSTANTIATE_TEST_SUITE_P(Grid, Baseline1dSizes,
                         ::testing::Values(std::pair{8, 1}, std::pair{10, 2}, std::pair{12, 2},
                                           std::pair{12, 4}, std::pair{14, 8},
                                           std::pair{16, 4}, std::pair{13, 2},
                                           std::pair{15, 8}));

TEST(Baseline1d, ThreeAllToAllsOfExpectedVolume) {
  const index_t n = 1 << 12;
  const int g = 4;
  std::vector<Cd> x(static_cast<std::size_t>(n)), y(x.size());
  fill_uniform(x.data(), n, 3);
  DistFft1d<double> fftd(n, g);
  fftd.execute(x.data(), y.data());
  const auto& fab = fftd.fabric();
  // Each all-to-all moves g(g-1) * N/g^2 elements.
  const double per_a2a = g * (g - 1.0) * double(n) / (g * g) * sizeof(Cd);
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("A2A-1"), per_a2a);
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("A2A-2"), per_a2a);
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("A2A-3"), per_a2a);
  EXPECT_DOUBLE_EQ(fab.total_bytes(), 3 * per_a2a);
}

TEST(Dist2d, MatchesSerial2dFft) {
  // Independent single-device oracle: row FFTs, Π_{M,P}, column FFTs with
  // the same Plan1D lines. Every layout and both graph drains must agree
  // with it byte for byte.
  const index_t m = 64, p = 32;
  for (int g : {1, 2, 4}) {
    std::vector<Cd> x(static_cast<std::size_t>(m * p));
    fill_uniform(x.data(), m * p, 17 + g);
    // p-major layout: dim0 of the 2D array is p.
    std::vector<Cd> ref = x;
    fft::Plan1D<double> fp(p), fm(m);
    fp.execute_batched(ref.data(), m, fft::Direction::Forward);
    std::vector<Cd> tmp(ref.size());
    permute_mp(ref.data(), tmp.data(), m, p);
    fm.execute_batched(tmp.data(), p, fft::Direction::Forward);
    for (exec::Mode mode : {exec::Mode::Serial, exec::Mode::Async}) {
      exec::ScopedMode sm(mode);
      Dist2dFft<double> fftd(m, p, g);
      std::vector<Cd> got(x.size());
      fftd.execute(x.data(), got.data());
      EXPECT_EQ(0, std::memcmp(got.data(), tmp.data(), got.size() * sizeof(Cd)))
          << "g=" << g << " mode=" << int(mode);
    }
  }
}

TEST(Dist2d, SingleAllToAll) {
  const index_t m = 64, p = 32;
  const int g = 4;
  std::vector<Cd> x(static_cast<std::size_t>(m * p)), y(x.size());
  fill_uniform(x.data(), m * p, 5);
  Dist2dFft<double> fftd(m, p, g);
  fftd.execute(x.data(), y.data());
  EXPECT_DOUBLE_EQ(fftd.fabric().bytes_with_tag("A2A-2D"),
                   g * (g - 1.0) * double(m * p) / (g * g) * sizeof(Cd));
  EXPECT_DOUBLE_EQ(fftd.fabric().total_bytes(), fftd.fabric().bytes_with_tag("A2A-2D"));
}

TEST(Dist2d, PencilRequestRejected) {
  // The 2D stage has one layout: an explicit pencil request is an error,
  // never a silent slab run; Auto and Slab both build the slab exchange.
  EXPECT_THROW(Dist2dFft<double>(64, 32, 4, model::Decomp::Pencil), Error);
  EXPECT_THROW(Dist2dFft<float>(64, 32, 4, model::Decomp::Pencil), Error);
  EXPECT_EQ(Dist2dFft<double>(64, 32, 4, model::Decomp::Auto).decomp(), model::Decomp::Slab);
  EXPECT_EQ(Dist2dFft<double>(64, 32, 4, model::Decomp::Slab).decomp(), model::Decomp::Slab);
}

struct DistCase {
  index_t n, p, ml;
  int b, q, g;
};

class DistFmmFftGrid : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistFmmFftGrid, MatchesExactFftAndSingleNode) {
  const auto c = GetParam();
  fmm::Params prm{c.n, c.p, c.ml, c.b, c.q};
  std::vector<Cd> x(static_cast<std::size_t>(c.n)), expect(x.size()), single(x.size());
  fill_uniform(x.data(), c.n, 1000 + c.g);

  core::exact_fft(c.n, x.data(), expect.data());
  core::FmmFft<Cd> splan(prm);
  splan.execute(x.data(), single.data());
  EXPECT_LT(rel_l2_error(single.data(), expect.data(), c.n), ambient_mixed() ? 4e-7 : 2e-14)
      << prm.to_string();

  // The single-node pipeline is the independent oracle: the distributed
  // graph, drained inline or on the pool, reproduces it byte for byte.
  DistFmmFft<Cd> dplan(prm, c.g);
  for (exec::Mode mode : {exec::Mode::Serial, exec::Mode::Async}) {
    exec::ScopedMode sm(mode);
    std::vector<Cd> got(x.size());
    dplan.execute(x.data(), got.data());
    EXPECT_EQ(0, std::memcmp(got.data(), single.data(), got.size() * sizeof(Cd)))
        << prm.to_string() << " g=" << c.g << " mode=" << int(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, DistFmmFftGrid,
                         ::testing::Values(DistCase{1 << 12, 32, 4, 2, 18, 2},
                                           DistCase{1 << 14, 64, 8, 2, 18, 2},
                                           DistCase{1 << 14, 64, 4, 3, 18, 4},
                                           DistCase{1 << 16, 64, 8, 3, 18, 8},
                                           DistCase{1 << 16, 256, 8, 3, 18, 4},
                                           DistCase{1 << 14, 64, 8, 2, 18, 1}));

TEST(DistFmmFft, MixedMatchesExactAndSingleNodeMixed) {
  // Mixed across devices: fp32 engines and fp32 halo payloads under the
  // fp64 shell stay inside the single-precision bound and reproduce the
  // single-node mixed pipeline byte for byte under either graph drain.
  fmm::Params prm{1 << 14, 64, 8, 2, 14};
  std::vector<Cd> x(static_cast<std::size_t>(prm.n)), expect(x.size()), single(x.size());
  fill_uniform(x.data(), prm.n, 606);

  core::FmmFft<Cd> splan(prm, /*fuse_post=*/true, fmm::Precision::Mixed);
  splan.execute(x.data(), single.data());
  core::exact_fft(prm.n, x.data(), expect.data());
  EXPECT_LT(rel_l2_error(single.data(), expect.data(), prm.n), 4e-7);

  DistFmmFft<Cd> dplan(prm, 2, fmm::Precision::Mixed);
  EXPECT_EQ(dplan.precision(), fmm::Precision::Mixed);
  for (exec::Mode mode : {exec::Mode::Serial, exec::Mode::Async}) {
    exec::ScopedMode sm(mode);
    std::vector<Cd> got(x.size());
    dplan.execute(x.data(), got.data());
    EXPECT_EQ(0, std::memcmp(got.data(), single.data(), got.size() * sizeof(Cd)))
        << "mode=" << int(mode);
  }
}

TEST(DistFmmFft, MixedSerialAndAsyncAreBitIdentical) {
  // The executor-mode invariant must survive the templated fp32 stage
  // tasks and comm lambdas.
  fmm::Params prm{1 << 14, 64, 8, 2, 14};
  std::vector<Cd> x(static_cast<std::size_t>(prm.n));
  fill_uniform(x.data(), prm.n, 99);
  auto run = [&](exec::Mode mode) {
    std::vector<Cd> y(x.size());
    exec::ScopedMode sm(mode);
    DistFmmFft<Cd> plan(prm, 2, fmm::Precision::Mixed);
    plan.execute(x.data(), y.data());
    return y;
  };
  EXPECT_EQ(run(exec::Mode::Serial), run(exec::Mode::Async));
}

TEST(DistFmmFft, RealInputAcrossDevices) {
  fmm::Params prm{1 << 14, 64, 8, 2, 18};
  const index_t n = prm.n;
  std::vector<double> x(static_cast<std::size_t>(n));
  fill_uniform(x.data(), n, 8);
  std::vector<Cd> got(static_cast<std::size_t>(n)), xc(got.size()), expect(got.size());
  DistFmmFft<double> plan(prm, 4);
  plan.execute(x.data(), got.data());
  for (std::size_t i = 0; i < x.size(); ++i) xc[i] = Cd(x[i], 0);
  core::exact_fft(n, xc.data(), expect.data());
  EXPECT_LT(rel_l2_error(got.data(), expect.data(), n), ambient_mixed() ? 4e-7 : 2e-14);
}

TEST(DistFmmFft, CommVolumeMatchesPaperModel) {
  // §5.2: per-process sends — S halo 2C(P-1)ML (we send full CP boxes),
  // M^l halos 4C(L-B)(P-1)Q, base gather 2^B·C(P-1)Q·(G-1)/G, plus the one
  // 2D-FFT all-to-all. Fabric bytes must match within the p=0-slice slack.
  fmm::Params prm{1 << 18, 64, 16, 3, 12};  // M=4096, L=8, B=3
  const int g = 4, c = 2;
  std::vector<Cd> x(static_cast<std::size_t>(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 2);
  DistFmmFft<Cd> plan(prm, g);
  plan.execute(x.data(), y.data());
  const auto& fab = plan.fabric();

  // Under the ambient mixed policy the FMM halos ship fp32 words while the
  // 2D-FFT all-to-all stays at the fp64 shell width; the §5.2 word counts
  // are identical either way. (The Transfer ledger keys by plain tag at
  // any width; only the metric/traffic keys carry the ".f32" suffix.)
  const double rb = ambient_mixed() ? sizeof(float) : sizeof(double);
  // Our implementation sends full C·P boxes (the paper counts C·(P-1)).
  const double s_expect = g * 2.0 * c * prm.p * prm.ml * rb;
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("COMM-S"), s_expect);

  double m_expect = 0;
  for (int lev = prm.b + 1; lev <= prm.l(); ++lev)
    m_expect += g * 2.0 * (2.0 * c * (prm.p - 1) * prm.q) * rb;
  double m_got = 0;
  for (int lev = prm.b + 1; lev <= prm.l(); ++lev)
    m_got += fab.bytes_with_tag("COMM-M" + std::to_string(lev));
  EXPECT_DOUBLE_EQ(m_got, m_expect);

  const double mb_expect =
      g * (g - 1.0) * (c * (prm.p - 1.0) * prm.q * (double(prm.boxes(prm.b)) / g)) * rb;
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("COMM-MB"), mb_expect);

  const double a2a = g * (g - 1.0) * double(prm.n) / (g * g) * sizeof(Cd);
  EXPECT_DOUBLE_EQ(fab.bytes_with_tag("A2A-2D"), a2a);

  // FMM comm is already below the single transpose at this modest N; the
  // asymptotic claim is checked at paper scale in the model test below.
  EXPECT_LT(fab.total_bytes() - a2a, 0.60 * a2a);
}

TEST(DistFmmFft, FmmCommMuchSmallerThanBaselineComm) {
  // The central claim: ~1 transpose instead of 3 (asymptotically; the FMM
  // halo volume is O(P·Q·L), independent of N).
  fmm::Params prm{1 << 18, 64, 16, 3, 12};
  const int g = 4;
  std::vector<Cd> x(static_cast<std::size_t>(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 4);
  DistFmmFft<Cd> plan(prm, g);
  plan.execute(x.data(), y.data());
  DistFft1d<double> base(prm.n, g);
  base.execute(x.data(), y.data());
  const double fmm_bytes = plan.fabric().total_bytes();
  const double base_bytes = base.fabric().total_bytes();
  EXPECT_LT(fmm_bytes, 0.55 * base_bytes);
  EXPECT_GT(fmm_bytes, 0.30 * base_bytes);  // at least the one transpose
}

TEST(DistFmmFft, CommAdvantageApproachesThreeXAtPaperScale) {
  // At N = 2^27 (no execution, model counts only) the FMM-FFT's total
  // communication approaches 1/3 of the baseline's three transposes.
  fmm::Params prm{index_t(1) << 27, 256, 64, 3, 16};
  const int g = 8, c = 2;
  const double rb = 8.0;
  const double fmm_halo = model::paper_fmm_comm(prm, c, g).total() * rb;
  const double transpose = double(prm.n) / g * (g - 1.0) / g * 16.0;  // per device
  EXPECT_LT(fmm_halo / transpose, 0.02);
  const double ratio = (fmm_halo + transpose) / (3.0 * transpose);
  EXPECT_NEAR(ratio, 1.0 / 3.0, 0.01);
}

TEST(DistFmmFft, EngineStatsExposedPerDevice) {
  fmm::Params prm{1 << 12, 32, 4, 2, 12};
  std::vector<Cd> x(static_cast<std::size_t>(prm.n)), y(x.size());
  fill_uniform(x.data(), prm.n, 6);
  DistFmmFft<Cd> plan(prm, 2);
  plan.execute(x.data(), y.data());
  for (int r = 0; r < 2; ++r) {
    const auto& st = plan.engine_stats(r);
    EXPECT_FALSE(st.empty());
    double flops = 0;
    for (const auto& s : st) flops += s.flops;
    EXPECT_GT(flops, 0);
  }
}

TEST(DistFmmFft, RejectsInvalidDeviceCounts) {
  fmm::Params prm{1 << 12, 32, 8, 2, 12};  // 2^B = 4
  EXPECT_THROW((DistFmmFft<Cd>(prm, 8)), Error);  // 2^B < G
  EXPECT_THROW((DistFft1d<double>(1 << 12, 128)), Error);
}

}  // namespace
}  // namespace fmmfft::dist
