// Unit and property tests for the FFT substrate: Stockham vs direct DFT,
// Bluestein sizes, round trips, batched/strided layouts, 2D transforms,
// classic FFT identities (linearity, Parseval, shift, impulse), the lane
// kernel's bit-identity grid against per-line transforms and the one-line
// oracle, and the four-step paths against their scalar oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstring>
#include <thread>
#include <vector>

#include "blas/simd.hpp"
#include "common/aligned.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "fft/fft.hpp"
#include "kernel_oracles.hpp"

namespace fmmfft::fft {
namespace {

template <typename T>
using Cx = std::complex<T>;

template <typename T>
std::vector<Cx<T>> random_signal(index_t n, std::uint64_t seed) {
  std::vector<Cx<T>> v(static_cast<std::size_t>(n));
  fill_uniform(v.data(), n, seed);
  return v;
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, ForwardMatchesReferenceDouble) {
  const index_t n = GetParam();
  auto x = random_signal<double>(n, n);
  std::vector<Cx<double>> ref(n);
  dft_reference(x.data(), ref.data(), n);
  fft(x.data(), n, Direction::Forward);
  EXPECT_LT(rel_l2_error(x.data(), ref.data(), n), 1e-12) << "n=" << n;
}

TEST_P(FftSizes, ForwardMatchesReferenceFloat) {
  const index_t n = GetParam();
  auto x = random_signal<float>(n, n + 1);
  std::vector<Cx<float>> ref(n);
  dft_reference(x.data(), ref.data(), n);
  fft(x.data(), n, Direction::Forward);
  EXPECT_LT(rel_l2_error(x.data(), ref.data(), n), 2e-5) << "n=" << n;
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const index_t n = GetParam();
  auto x = random_signal<double>(n, 2 * n);
  auto orig = x;
  Plan1D<double> plan(n);
  plan.execute(x.data(), Direction::Forward);
  plan.execute(x.data(), Direction::Inverse);
  normalize(x.data(), n, n);
  EXPECT_LT(rel_l2_error(x.data(), orig.data(), n), 1e-13) << "n=" << n;
}

// Every power of two through 2^12 — both radix-4 stage counts (even log2)
// and the radix-2 cleanup path (odd log2) at every depth.
INSTANTIATE_TEST_SUITE_P(Pow2, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                                           4096));
INSTANTIATE_TEST_SUITE_P(Bluestein, FftSizes,
                         ::testing::Values(3, 5, 6, 7, 12, 15, 17, 100, 243, 1000));

/// Forward DFT of a power-of-two line in long double: recursive radix-2
/// decimation in time, each twiddle from cos/sin of its own angle. It shares
/// no code with Plan1D and is O(n log n), so large sizes stay cheap.
std::vector<Cx<long double>> fft_reference_pow2(const std::vector<Cx<long double>>& x) {
  const std::size_t n = x.size(), h = n / 2;
  if (n == 1) return x;
  std::vector<Cx<long double>> even(h), odd(h);
  for (std::size_t i = 0; i < h; ++i) {
    even[i] = x[2 * i];
    odd[i] = x[2 * i + 1];
  }
  even = fft_reference_pow2(even);
  odd = fft_reference_pow2(odd);
  std::vector<Cx<long double>> y(n);
  for (std::size_t k = 0; k < h; ++k) {
    const long double ang = -2.0L * pi_v<long double> * (long double)k / (long double)n;
    const Cx<long double> t = Cx<long double>(std::cos(ang), std::sin(ang)) * odd[k];
    y[k] = even[k] + t;
    y[k + h] = even[k] - t;
  }
  return y;
}

TEST(Fft, LargePow2MatchesReference) {
  // Four-step lines, n1 columns × 128-point rows, against a long-double
  // radix-2 reference, double only: 2^13 = 2^6·2^7 (an odd stage count in
  // the column factor), 2^14 = 2^7·2^7 (radix-2 cleanup in both factors)
  // and 2^17 = 2^10·2^7.
  for (index_t n : {index_t(8192), index_t(16384), index_t(1) << 17}) {
    auto x = random_signal<double>(n, 77 + n);
    const auto ref_ld = fft_reference_pow2(std::vector<Cx<long double>>(x.begin(), x.end()));
    std::vector<Cx<double>> ref(ref_ld.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      ref[i] = Cx<double>(double(ref_ld[i].real()), double(ref_ld[i].imag()));
    fft(x.data(), n, Direction::Forward);
    EXPECT_LT(rel_l2_error(x.data(), ref.data(), n), 1e-11) << "n=" << n;
  }
}

TEST(Fft, ImpulseGivesAllOnes) {
  const index_t n = 64;
  std::vector<Cx<double>> x(n, Cx<double>(0));
  x[0] = Cx<double>(1, 0);
  fft(x.data(), n);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), 1.0, 1e-14);
    EXPECT_NEAR(x[i].imag(), 0.0, 1e-14);
  }
}

TEST(Fft, ShiftedImpulseGivesTwiddleRamp) {
  const index_t n = 32, shift = 5;
  std::vector<Cx<double>> x(n, Cx<double>(0));
  x[shift] = Cx<double>(1, 0);
  fft(x.data(), n);
  for (index_t i = 0; i < n; ++i) {
    double ang = -2.0 * pi_v<double> * double(i * shift) / double(n);
    EXPECT_NEAR(x[i].real(), std::cos(ang), 1e-13);
    EXPECT_NEAR(x[i].imag(), std::sin(ang), 1e-13);
  }
}

TEST(Fft, Linearity) {
  const index_t n = 128;
  auto a = random_signal<double>(n, 1);
  auto b = random_signal<double>(n, 2);
  std::vector<Cx<double>> sum(n);
  for (index_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  Plan1D<double> plan(n);
  plan.execute(a.data(), Direction::Forward);
  plan.execute(b.data(), Direction::Forward);
  plan.execute(sum.data(), Direction::Forward);
  std::vector<Cx<double>> combo(n);
  for (index_t i = 0; i < n; ++i) combo[i] = 2.0 * a[i] + 3.0 * b[i];
  EXPECT_LT(rel_l2_error(sum.data(), combo.data(), n), 1e-13);
}

TEST(Fft, ParsevalEnergyConservation) {
  const index_t n = 512;
  auto x = random_signal<double>(n, 3);
  double et = 0;
  for (auto& z : x) et += std::norm(z);
  fft(x.data(), n);
  double ef = 0;
  for (auto& z : x) ef += std::norm(z);
  EXPECT_NEAR(ef, et * n, et * n * 1e-12);
}

TEST(Fft, RealInputConjugateSymmetry) {
  const index_t n = 256;
  std::vector<Cx<double>> x(n);
  Rng rng(7);
  for (auto& z : x) z = Cx<double>(rng.uniform_sym(), 0.0);
  fft(x.data(), n);
  for (index_t k = 1; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), x[n - k].real(), 1e-11);
    EXPECT_NEAR(x[k].imag(), -x[n - k].imag(), 1e-11);
  }
}

TEST(Fft, BatchedMatchesIndividual) {
  const index_t n = 64, count = 9;
  auto data = random_signal<double>(n * count, 4);
  auto expect = data;
  Plan1D<double> plan(n);
  plan.execute_batched(data.data(), count, Direction::Forward);
  for (index_t g = 0; g < count; ++g) plan.execute(expect.data() + g * n, Direction::Forward);
  EXPECT_EQ(data, expect);
}

TEST(Fft, StridedAdvancedLayout) {
  // Transform along the slow dimension of an 8×16 column-major array:
  // 8 batches, stride 8, dist 1 — equivalent to transpose+batched+transpose.
  const index_t n0 = 8, n1 = 16;
  auto data = random_signal<double>(n0 * n1, 5);
  auto expect = data;
  Plan1D<double> plan(n1);
  plan.execute_strided(data.data(), n0, /*stride=*/n0, /*dist=*/1, Direction::Forward);
  for (index_t i = 0; i < n0; ++i) {
    std::vector<Cx<double>> line(n1);
    for (index_t j = 0; j < n1; ++j) line[j] = expect[i + j * n0];
    plan.execute(line.data(), Direction::Forward);
    for (index_t j = 0; j < n1; ++j)
      EXPECT_EQ(data[i + j * n0], line[j]) << "i=" << i << " j=" << j;
  }
}

TEST(Fft, StridedWithUnitStrideUsesDist) {
  const index_t n = 32, count = 4;
  auto data = random_signal<double>(n * count, 6);
  auto expect = data;
  Plan1D<double> plan(n);
  plan.execute_strided(data.data(), count, 1, n, Direction::Forward);
  plan.execute_batched(expect.data(), count, Direction::Forward);
  EXPECT_EQ(data, expect);
}

TEST(Fft2D, MatchesRowColumnReference) {
  const index_t n0 = 16, n1 = 8;
  auto x = random_signal<double>(n0 * n1, 8);
  auto ref = x;
  // Reference: DFT along dim0 then dim1 by explicit loops.
  {
    std::vector<Cx<double>> tmp(std::max(n0, n1));
    for (index_t j = 0; j < n1; ++j) {
      dft_reference(ref.data() + j * n0, tmp.data(), n0);
      std::copy_n(tmp.data(), n0, ref.data() + j * n0);
    }
    for (index_t i = 0; i < n0; ++i) {
      std::vector<Cx<double>> line(n1), out(n1);
      for (index_t j = 0; j < n1; ++j) line[j] = ref[i + j * n0];
      dft_reference(line.data(), out.data(), n1);
      for (index_t j = 0; j < n1; ++j) ref[i + j * n0] = out[j];
    }
  }
  fft2d(x.data(), n0, n1, Direction::Forward);
  EXPECT_LT(rel_l2_error(x.data(), ref.data(), n0 * n1), 1e-12);
}

TEST(Fft2D, RoundTrip) {
  const index_t n0 = 32, n1 = 64;
  auto x = random_signal<double>(n0 * n1, 9);
  auto orig = x;
  Plan2D<double> plan(n0, n1);
  plan.execute(x.data(), Direction::Forward);
  plan.execute(x.data(), Direction::Inverse);
  normalize(x.data(), n0 * n1, n0 * n1);
  EXPECT_LT(rel_l2_error(x.data(), orig.data(), n0 * n1), 1e-13);
  EXPECT_EQ(plan.size0(), n0);
  EXPECT_EQ(plan.size1(), n1);
}

TEST(Fft2D, SeparabilityProperty) {
  // 2D FFT of an outer product is the outer product of 1D FFTs.
  const index_t n0 = 16, n1 = 32;
  auto u = random_signal<double>(n0, 10);
  auto v = random_signal<double>(n1, 11);
  std::vector<Cx<double>> x(n0 * n1);
  for (index_t j = 0; j < n1; ++j)
    for (index_t i = 0; i < n0; ++i) x[i + j * n0] = u[i] * v[j];
  fft2d(x.data(), n0, n1);
  auto fu = u, fv = v;
  fft(fu.data(), n0);
  fft(fv.data(), n1);
  std::vector<Cx<double>> expect(n0 * n1);
  for (index_t j = 0; j < n1; ++j)
    for (index_t i = 0; i < n0; ++i) expect[i + j * n0] = fu[i] * fv[j];
  EXPECT_LT(rel_l2_error(x.data(), expect.data(), n0 * n1), 1e-12);
}

TEST(Fft, PlanReuseIsConsistent) {
  const index_t n = 128;
  Plan1D<double> plan(n);
  auto x = random_signal<double>(n, 12);
  auto y = x;
  plan.execute(x.data(), Direction::Forward);
  plan.execute(y.data(), Direction::Forward);
  EXPECT_EQ(x, y);
  EXPECT_EQ(plan.size(), n);
}

TEST(Fft, SharedPlanConcurrentExecuteIsRaceFree) {
  // Regression: scratch used to live inside the plan, so concurrent
  // execute() on one shared plan was a data race that silently corrupted
  // results. Scratch is now a thread-local arena lease — hammer one plan
  // from many threads and check every transform against the reference.
  const index_t n = 256;
  const int kThreads = 8, kReps = 16;
  Plan1D<double> plan(n);
  auto x = random_signal<double>(n, 21);
  std::vector<Cx<double>> ref(static_cast<std::size_t>(n));
  dft_reference(x.data(), ref.data(), n);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int r = 0; r < kReps; ++r) {
        auto mine = x;
        plan.execute(mine.data(), Direction::Forward);
        if (rel_l2_error(mine.data(), ref.data(), n) > 1e-12) failures++;
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Fft, BatchedIsBitIdenticalSerialVsPool) {
  // Pool-chunked batches must produce exactly the serial result: each
  // batch is transformed by one task with a fixed arithmetic order.
  const index_t n = 512, count = 64;
  auto pool_run = random_signal<double>(n * count, 22);
  auto serial_run = pool_run;
  Plan1D<double> plan(n);
  plan.execute_batched(pool_run.data(), count, Direction::Forward);
  {
    ThreadPool::ScopedSerial serial;
    plan.execute_batched(serial_run.data(), count, Direction::Forward);
  }
  EXPECT_EQ(pool_run, serial_run);
}

// ---------------------------------------------------------------------------
// Lane kernel: batches run VL lines at a time (VL = native vector lanes),
// tails and lone lines one at a time. A line's bits must not depend on the
// path, the layout or the pool width, and fp64 must equal the one-line
// oracle bit for bit.

template <typename T>
bool same_bits(const std::vector<Cx<T>>& a, const std::vector<Cx<T>>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(Cx<T>)) == 0;
}

/// Every pow2 n from 2 to 2^13 (plus two Bluestein sizes), both directions,
/// counts VL−1, VL, VL+1 and 3·VL+2: execute_batched (inline and on the
/// pool), execute_strided with dist 1 and dist n, all memcmp-equal to
/// execute() line by line, and the per-line result memcmp-equal to the
/// one-line oracle (four-step above the Stockham limit).
template <typename T>
void check_lane_grid() {
  constexpr index_t vl = index_t(sizeof(typename simd::NativeVec<T>::vec) / sizeof(T));
  std::vector<index_t> sizes;
  for (index_t n = 2; n <= 8192; n *= 2) sizes.push_back(n);
  sizes.push_back(12);
  sizes.push_back(100);
  for (index_t n : sizes) {
    const Plan1D<T> plan(n);
    for (Direction dir : {Direction::Forward, Direction::Inverse})
      for (index_t count : {vl - 1, vl, vl + 1, 3 * vl + 2}) {
        if (count < 1) continue;
        SCOPED_TRACE("n=" + std::to_string(n) + " count=" + std::to_string(count) +
                     (dir == Direction::Forward ? " forward" : " inverse"));
        const auto x = random_signal<T>(n * count, std::uint64_t(n * 131 + count));
        auto lines = x;
        for (index_t g = 0; g < count; ++g) plan.execute(lines.data() + g * n, dir);

        auto pooled = x;
        plan.execute_batched(pooled.data(), count, dir);
        EXPECT_TRUE(same_bits(pooled, lines)) << "execute_batched on the pool";
        auto serial = x;
        {
          ThreadPool::ScopedSerial inline_only;
          plan.execute_batched(serial.data(), count, dir);
        }
        EXPECT_TRUE(same_bits(serial, lines)) << "execute_batched inline";

        // dist 1: element j of line g at g + j·count.
        std::vector<Cx<T>> inter(x.size()), back(x.size());
        for (index_t g = 0; g < count; ++g)
          for (index_t j = 0; j < n; ++j) inter[g + j * count] = x[g * n + j];
        plan.execute_strided(inter.data(), count, count, 1, dir);
        for (index_t g = 0; g < count; ++g)
          for (index_t j = 0; j < n; ++j) back[g * n + j] = inter[g + j * count];
        EXPECT_TRUE(same_bits(back, lines)) << "execute_strided dist 1";
        auto strided = x;
        plan.execute_strided(strided.data(), count, 1, n, dir);
        EXPECT_TRUE(same_bits(strided, lines)) << "execute_strided dist n";

        if (!is_pow2(n)) continue;
        const auto line_oracle = pow2_oracle<T>(n);
        auto oracle = x;
        for (index_t g = 0; g < count; ++g)
          line_oracle(oracle.data() + g * n, dir == Direction::Inverse);
        EXPECT_TRUE(same_bits(lines, oracle)) << "against the one-line oracle";
      }
  }
}

TEST(FftLanes, DoubleGridBitIdenticalAcrossPathsAndToOracle) { check_lane_grid<double>(); }

TEST(FftLanes, FloatGridBitIdenticalAcrossPathsAndNearOracle) { check_lane_grid<float>(); }

// ---------------------------------------------------------------------------
// Four-step: a pow2 line above the Stockham limit is a composition of the
// kernel (columns, fused twiddle, rows). Every path — lone, batched with a
// tail shorter than VL, strided, and Bluestein with m above the limit —
// must equal the scalar oracles bit for bit, inline and on the pool.

/// Plan1D's Bluestein for a non-pow2 line, on the scalar oracles: its
/// chirp, filter and scaling, with the size-m transforms by pow2_oracle.
template <typename T>
void bluestein_oracle(Cx<T>* x, index_t n, bool inverse) {
  index_t m = 1;
  while (m < 2 * n - 1) m *= 2;
  const auto line = pow2_oracle<T>(m);
  const long double sgn = inverse ? 1.0L : -1.0L;
  std::vector<Cx<T>> c(static_cast<std::size_t>(n)), bf(static_cast<std::size_t>(m)),
      work(static_cast<std::size_t>(m));
  for (index_t k = 0; k < n; ++k) {
    const long double ang =
        sgn * pi_v<long double> * (long double)((__int128)k * k % (2 * n)) / (long double)n;
    c[k] = Cx<T>((T)std::cos(ang), (T)std::sin(ang));
    bf[k] = std::conj(c[k]);
    if (k > 0) bf[m - k] = std::conj(c[k]);
  }
  line(bf.data(), false);
  const bool fuse = oracle_detail::kFmaHost;
  for (index_t k = 0; k < n; ++k) work[k] = oracle_detail::cmul(x[k], c[k], fuse);
  line(work.data(), false);
  for (index_t k = 0; k < m; ++k) work[k] = oracle_detail::cmul(work[k], bf[k], fuse);
  line(work.data(), true);
  const T inv_m = T(1) / T(m);
  for (index_t k = 0; k < n; ++k) {
    const Cx<T> y = oracle_detail::cmul(work[k], c[k], fuse);
    x[k] = Cx<T>(y.real() * inv_m, y.imag() * inv_m);
  }
}

template <typename T>
void check_four_step_paths() {
  // Column factors 2^6, 2^7, 2^10 and 2^11 over 128-point rows: odd and
  // even stage counts, with and without the radix-2 cleanup stage. 2500
  // and 5000 run Bluestein at m = 2^13 and 2^14.
  for (index_t n : {index_t(1) << 13, index_t(1) << 14, index_t(1) << 17, index_t(1) << 18,
                    index_t(2500), index_t(5000)}) {
    const Plan1D<T> plan(n);
    const index_t count = 3;  // below VL: all of a batch is its tail
    for (Direction dir : {Direction::Forward, Direction::Inverse}) {
      const bool inv = dir == Direction::Inverse;
      const auto x = random_signal<T>(n * count, std::uint64_t(n + count));
      auto oracle = x;
      const auto line = is_pow2(n) ? pow2_oracle<T>(n) : nullptr;
      for (index_t g = 0; g < count; ++g) {
        if (line)
          line(oracle.data() + g * n, inv);
        else
          bluestein_oracle(oracle.data() + g * n, n, inv);
      }
      // Vector-aligned data and data one and three elements off: large
      // lines stream their output from a shifted group grid.
      Buffer<Cx<T>> storage(n * count + 3);
      for (index_t offset : {index_t(0), index_t(1), index_t(3)}) {
        SCOPED_TRACE("n=" + std::to_string(n) + (inv ? " inverse" : " forward") +
                     " offset=" + std::to_string(offset));
        Cx<T>* y = storage.data() + offset;
        const auto run = [&](const char* path, auto transform) {
          std::copy(x.begin(), x.end(), y);
          transform();
          EXPECT_EQ(std::memcmp(y, oracle.data(), x.size() * sizeof(Cx<T>)), 0) << path;
        };
        run("execute", [&] {
          for (index_t g = 0; g < count; ++g) plan.execute(y + g * n, dir);
        });
        run("execute_batched on the pool", [&] { plan.execute_batched(y, count, dir); });
        run("execute_batched inline", [&] {
          ThreadPool::ScopedSerial inline_only;
          plan.execute_batched(y, count, dir);
        });
        run("execute_strided dist n", [&] { plan.execute_strided(y, count, 1, n, dir); });
      }
      // dist 1: element j of line g at g + j·count.
      std::vector<Cx<T>> inter(x.size()), back(x.size());
      for (index_t g = 0; g < count; ++g)
        for (index_t j = 0; j < n; ++j) inter[g + j * count] = x[g * n + j];
      plan.execute_strided(inter.data(), count, count, 1, dir);
      for (index_t g = 0; g < count; ++g)
        for (index_t j = 0; j < n; ++j) back[g * n + j] = inter[g + j * count];
      EXPECT_TRUE(same_bits(back, oracle)) << "execute_strided dist 1, n=" << n;
    }
  }
}

TEST(FftFourStep, DoubleMatchesOracleOnEveryPath) { check_four_step_paths<double>(); }

TEST(FftFourStep, FloatMatchesOracleOnEveryPath) { check_four_step_paths<float>(); }

/// Past 2^24 the row factor is itself four-step: each row transforms as a
/// lone line in the intermediate, then one pass transposes the rows into
/// place. With the Stockham limit lowered to 2^max_log2 the same code runs
/// at 2^(max_log2 + 13); its 2^13 rows split 2^6 · 2^7 exactly as 2^25's
/// do at the real limit.
template <typename T>
void check_recursive_rows(index_t max_log2) {
  const index_t n = index_t(1) << (max_log2 + 13);
  for (Direction dir : {Direction::Forward, Direction::Inverse}) {
    SCOPED_TRACE(dir == Direction::Inverse ? "inverse" : "forward");
    const auto x = random_signal<T>(n, std::uint64_t(n + max_log2));
    auto oracle = x, y = x;
    pow2_oracle<T>(n, max_log2)(oracle.data(), dir == Direction::Inverse);
    detail::pow2_line(y.data(), n, max_log2, dir);
    EXPECT_TRUE(same_bits(y, oracle));
  }
}

TEST(FftFourStep, RecursiveRowPassMatchesOracle) {
  check_recursive_rows<double>(7);  // 2^20 = 2^7 · (2^6 · 2^7)
  check_recursive_rows<float>(7);   // the same split, at 16 lanes
}

TEST(Fft, PlanCacheReturnsSharedPlans) {
  const auto before = plan_cache_stats();
  auto p1 = cached_plan1d<double>(3072);  // unlikely to be cached by other tests
  const auto after_miss = plan_cache_stats();
  auto p2 = cached_plan1d<double>(3072);
  const auto after_hit = plan_cache_stats();
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(p1->size(), 3072);
  EXPECT_EQ(after_miss.misses, before.misses + 1);
  EXPECT_EQ(after_hit.hits, after_miss.hits + 1);
  // One-shot fft() goes through the cache: a repeat at the same size must
  // be a hit, not a rebuild.
  std::vector<Cx<double>> x(64, Cx<double>(1, 0));
  fft(x.data(), 64);
  const auto s1 = plan_cache_stats();
  fft(x.data(), 64);
  const auto s2 = plan_cache_stats();
  EXPECT_EQ(s2.hits, s1.hits + 1);
  EXPECT_EQ(s2.misses, s1.misses);
}

TEST(Fft, FlopModel) {
  EXPECT_EQ(fft_flops(1), 0.0);
  EXPECT_NEAR(fft_flops(1024), 5.0 * 1024 * 10, 1e-9);
}

TEST(Fft, ThrowsOnInvalidSize) {
  EXPECT_THROW(Plan1D<double>(0), Error);
  EXPECT_THROW(Plan1D<double>(-4), Error);
}

}  // namespace
}  // namespace fmmfft::fft
