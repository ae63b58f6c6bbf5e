// Unit and property tests for the BLAS substrate: blocked GEMM vs the naive
// reference across shapes/transposes/alpha-beta, strided batched GEMM, GEMV.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "blas/blas.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "kernel_oracles.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::blas {
namespace {

template <typename T>
std::vector<T> random_vec(index_t n, std::uint64_t seed) {
  std::vector<T> v(static_cast<std::size_t>(n));
  fill_uniform(v.data(), n, seed);
  return v;
}

using Shape = std::tuple<int, int, int, Op, Op>;

class GemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, MatchesReferenceDouble) {
  auto [m, n, k, ta, tb] = GetParam();
  index_t lda = ta == Op::N ? m + 2 : k + 1;
  index_t ldb = tb == Op::N ? k + 3 : n + 2;
  index_t ldc = m + 1;
  auto a = random_vec<double>(lda * (ta == Op::N ? k : m), 1);
  auto b = random_vec<double>(ldb * (tb == Op::N ? n : k), 2);
  auto c0 = random_vec<double>(ldc * n, 3);
  auto c1 = c0;
  const double alpha = 1.25, beta = -0.5;
  gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c0.data(), ldc);
  gemm_reference(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c1.data(), ldc);
  EXPECT_LT(rel_l2_error(c0.data(), c1.data(), (index_t)c0.size()), 1e-13);
}

TEST_P(GemmShapes, MatchesReferenceFloat) {
  auto [m, n, k, ta, tb] = GetParam();
  index_t lda = ta == Op::N ? m : k;
  index_t ldb = tb == Op::N ? k : n;
  index_t ldc = m;
  auto a = random_vec<float>(lda * (ta == Op::N ? k : m), 4);
  auto b = random_vec<float>(ldb * (tb == Op::N ? n : k), 5);
  auto c0 = random_vec<float>(ldc * n, 6);
  auto c1 = c0;
  gemm<float>(ta, tb, m, n, k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f, c0.data(), ldc);
  gemm_reference<float>(ta, tb, m, n, k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f, c1.data(),
                        ldc);
  EXPECT_LT(rel_l2_error(c0.data(), c1.data(), (index_t)c0.size()), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapes,
    ::testing::Values(
        Shape{1, 1, 1, Op::N, Op::N}, Shape{8, 4, 16, Op::N, Op::N},
        Shape{7, 5, 3, Op::N, Op::N}, Shape{65, 67, 129, Op::N, Op::N},
        Shape{16, 16, 300, Op::N, Op::N}, Shape{130, 40, 70, Op::N, Op::N},
        Shape{33, 17, 9, Op::T, Op::N}, Shape{12, 40, 25, Op::N, Op::T},
        Shape{50, 50, 50, Op::T, Op::T}, Shape{100, 1, 64, Op::N, Op::N},
        Shape{1, 100, 64, Op::N, Op::N}, Shape{9, 9, 1, Op::N, Op::N},
        Shape{256, 8, 16, Op::N, Op::N}, Shape{8, 256, 16, Op::T, Op::N}));

TEST(Gemm, MicrokernelEdgeSizes) {
  // Exercise the masked edge handling of the register-tiled microkernel:
  // every m, n within ±1 of the MR=8 / NR=4 register tile (and one tile
  // beyond), across k values that stress the accumulation loop.
  for (index_t m : {7, 8, 9, 15, 16, 17})
    for (index_t n : {3, 4, 5, 7, 8, 9})
      for (index_t k : {1, 2, 8, 37}) {
        auto a = random_vec<double>(m * k, 100 + m);
        auto b = random_vec<double>(k * n, 200 + n);
        auto c0 = random_vec<double>(m * n, 300 + k);
        auto c1 = c0;
        gemm(Op::N, Op::N, m, n, k, 1.5, a.data(), m, b.data(), k, -0.25, c0.data(), m);
        gemm_reference(Op::N, Op::N, m, n, k, 1.5, a.data(), m, b.data(), k, -0.25, c1.data(),
                       m);
        EXPECT_LT(rel_l2_error(c0.data(), c1.data(), m * n), 1e-13)
            << "m=" << m << " n=" << n << " k=" << k;
      }
}

TEST(Gemm, AlphaBetaCorners) {
  // alpha/beta corner values take distinct paths through the store tile
  // (beta==0 skip-read, beta==1 plain add, alpha==0 scale-only).
  const index_t m = 13, n = 6, k = 9;
  auto a = random_vec<double>(m * k, 60);
  auto b = random_vec<double>(k * n, 61);
  for (double alpha : {0.0, 1.0, -1.0, 0.75})
    for (double beta : {0.0, 1.0, -1.0, 0.5}) {
      auto c0 = random_vec<double>(m * n, 62);
      auto c1 = c0;
      gemm(Op::N, Op::N, m, n, k, alpha, a.data(), m, b.data(), k, beta, c0.data(), m);
      gemm_reference(Op::N, Op::N, m, n, k, alpha, a.data(), m, b.data(), k, beta, c1.data(), m);
      EXPECT_LT(rel_l2_error(c0.data(), c1.data(), m * n), 1e-13)
          << "alpha=" << alpha << " beta=" << beta;
    }
}

TEST(Gemm, SimdLabelIsKnown) {
  const std::string label = simd_label();
  EXPECT_TRUE(label == "vec512" || label == "vec256" || label == "vec128" || label == "scalar")
      << label;
}

TEST(Gemm, LargeSingleGemmShardingIsDeterministic) {
  // Big single GEMMs shard MC row-blocks across the pool; the k-loop stays
  // serial inside each block, so the result must not depend on the split.
  const index_t m = 384, n = 64, k = 96;
  auto a = random_vec<double>(m * k, 70);
  auto b = random_vec<double>(k * n, 71);
  std::vector<double> c0(m * n, 0), c1(m * n, 0);
  gemm(Op::N, Op::N, m, n, k, 1.0, a.data(), m, b.data(), k, 0.0, c0.data(), m);
  {
    ThreadPool::ScopedSerial serial;
    gemm(Op::N, Op::N, m, n, k, 1.0, a.data(), m, b.data(), k, 0.0, c1.data(), m);
  }
  EXPECT_EQ(c0, c1);
}

TEST(Gemm, BetaZeroIgnoresGarbageC) {
  const index_t m = 6, n = 5, k = 4;
  auto a = random_vec<double>(m * k, 10);
  auto b = random_vec<double>(k * n, 11);
  std::vector<double> c(m * n, std::numeric_limits<double>::quiet_NaN());
  gemm(Op::N, Op::N, m, n, k, 1.0, a.data(), m, b.data(), k, 0.0, c.data(), m);
  for (double v : c) EXPECT_TRUE(std::isfinite(v));
}

TEST(Gemm, AlphaZeroScalesOnly) {
  const index_t m = 5, n = 5, k = 5;
  auto a = random_vec<double>(m * k, 12);
  auto b = random_vec<double>(k * n, 13);
  auto c = random_vec<double>(m * n, 14);
  auto expect = c;
  for (auto& v : expect) v *= 2.0;
  gemm(Op::N, Op::N, m, n, k, 0.0, a.data(), m, b.data(), k, 2.0, c.data(), m);
  EXPECT_EQ(c, expect);
}

TEST(Gemm, EmptyDimensionsAreNoOps) {
  std::vector<double> c(4, 1.0);
  gemm<double>(Op::N, Op::N, 0, 2, 3, 1.0, nullptr, 1, nullptr, 3, 0.0, c.data(), 1);
  gemm<double>(Op::N, Op::N, 2, 0, 3, 1.0, nullptr, 2, nullptr, 3, 0.0, c.data(), 2);
  // k == 0 with beta: C := beta*C
  std::vector<double> c2(4, 3.0);
  gemm<double>(Op::N, Op::N, 2, 2, 0, 1.0, nullptr, 2, nullptr, 1, 0.5, c2.data(), 2);
  for (double v : c2) EXPECT_EQ(v, 1.5);
}

TEST(Gemm, LinearityProperty) {
  // gemm(A, x+y) == gemm(A, x) + gemm(A, y)
  const index_t m = 31, n = 9, k = 17;
  auto a = random_vec<double>(m * k, 20);
  auto b1 = random_vec<double>(k * n, 21);
  auto b2 = random_vec<double>(k * n, 22);
  std::vector<double> bsum(k * n);
  for (index_t i = 0; i < k * n; ++i) bsum[i] = b1[i] + b2[i];
  std::vector<double> c1(m * n, 0), c2(m * n, 0), cs(m * n, 0);
  gemm(Op::N, Op::N, m, n, k, 1.0, a.data(), m, b1.data(), k, 0.0, c1.data(), m);
  gemm(Op::N, Op::N, m, n, k, 1.0, a.data(), m, b2.data(), k, 1.0, c1.data(), m);
  gemm(Op::N, Op::N, m, n, k, 1.0, a.data(), m, bsum.data(), k, 0.0, cs.data(), m);
  EXPECT_LT(rel_l2_error(c1.data(), cs.data(), m * n), 1e-13);
  (void)c2;
}

TEST(BatchedGemm, MatchesLoopOfGemms) {
  const index_t m = 12, n = 7, k = 9, batch = 5;
  auto a = random_vec<double>(m * k * batch, 30);
  auto b = random_vec<double>(k * n * batch, 31);
  auto c0 = random_vec<double>(m * n * batch, 32);
  auto c1 = c0;
  gemm_strided_batched(Op::N, Op::N, m, n, k, 2.0, a.data(), m, m * k, b.data(), k, k * n, 0.5,
                       c0.data(), m, m * n, batch);
  for (index_t g = 0; g < batch; ++g)
    gemm(Op::N, Op::N, m, n, k, 2.0, a.data() + g * m * k, m, b.data() + g * k * n, k, 0.5,
         c1.data() + g * m * n, m);
  EXPECT_EQ(c0, c1);
}

TEST(BatchedGemm, SharedOperandViaZeroStride) {
  // stride_a = 0 broadcasts one operator across the batch — exactly how the
  // S2M/M2M stages apply one small operator to every box.
  const index_t q = 4, ml = 6, batch = 8;
  auto op = random_vec<double>(q * ml, 40);
  auto s = random_vec<double>(ml * batch, 41);
  std::vector<double> out(q * batch, 0);
  gemm_strided_batched(Op::N, Op::N, q, 1, ml, 1.0, op.data(), q, 0, s.data(), ml, ml, 0.0,
                       out.data(), q, q, batch);
  for (index_t g = 0; g < batch; ++g) {
    for (index_t i = 0; i < q; ++i) {
      double expect = 0;
      for (index_t j = 0; j < ml; ++j) expect += op[i + j * q] * s[j + g * ml];
      EXPECT_NEAR(out[i + g * q], expect, 1e-12);
    }
  }
}

// -- Shared-B batch-fused fast path ------------------------------------------
// stride_b == 0 with batch > 1 dispatches into the batch-fused path: all
// items stack into one virtual m·batch row space, B packs once per (NC, KC)
// tile, and small-m items aggregate into full microkernel tiles. Per C
// element the arithmetic order is exactly a plain gemm's (beta-scale once,
// then k ascending through the serial KC panels), so the results must equal
// a loop of gemm calls BIT FOR BIT — at any worker count and for tiles that
// straddle item boundaries.
template <typename T>
void check_shared_b_exact(Op tb, index_t m, index_t n, index_t k, index_t batch, T alpha, T beta,
                          std::uint64_t seed) {
  const index_t lda = m + 1, ldb = (tb == Op::N ? k : n) + 1, ldc = m + 2;
  auto a = random_vec<T>(lda * k * batch, seed);
  auto b = random_vec<T>(ldb * (tb == Op::N ? n : k), seed + 1);
  auto c0 = random_vec<T>(ldc * n * batch, seed + 2);
  auto c1 = c0;
  gemm_strided_batched(Op::N, tb, m, n, k, alpha, a.data(), lda, lda * k, b.data(), ldb, 0, beta,
                       c0.data(), ldc, ldc * n, batch);
  for (index_t g = 0; g < batch; ++g)
    gemm(Op::N, tb, m, n, k, alpha, a.data() + g * lda * k, lda, b.data(), ldb, beta,
         c1.data() + g * ldc * n, ldc);
  EXPECT_EQ(c0, c1) << "tb=" << int(tb) << " m=" << m << " n=" << n << " k=" << k
                    << " batch=" << batch << " alpha=" << alpha << " beta=" << beta;
}

TEST(BatchedGemmSharedB, ExactlyMatchesLoopOfGemms) {
  const std::tuple<index_t, index_t, index_t, index_t> shapes[] = {
      {3, 5, 7, 11},    // m << MR: every microkernel tile straddles items
      {17, 4, 9, 6},    // odd tails in every dimension
      {64, 18, 8, 32},  // the S2M shape, MC-aligned rows
      {65, 7, 3, 4},    // crosses an MC block boundary with a one-row tail
  };
  for (Op tb : {Op::N, Op::T})
    for (const auto& [m, n, k, batch] : shapes)
      for (double beta : {0.0, 1.0, 0.5})
        check_shared_b_exact<double>(tb, m, n, k, batch, 1.25, beta, 60 + index_t(beta * 8));
}

TEST(BatchedGemmSharedB, SerialAndPoolBitIdentical) {
  // The (item × MC-block) grid is partitioned across workers, but each
  // C element is owned by exactly one grid cell and the KC loop is serial,
  // so the partition cannot change any result bit.
  const index_t m = 13, n = 18, k = 36, batch = 24;
  auto a = random_vec<double>(m * k * batch, 70);
  auto b = random_vec<double>(k * n, 71);
  std::vector<double> c0(static_cast<std::size_t>(m * n * batch), 0.0), c1 = c0;
  {
    ThreadPool::ScopedSerial serial;
    gemm_strided_batched(Op::N, Op::N, m, n, k, 1.0, a.data(), m, m * k, b.data(), k, 0, 0.0,
                         c0.data(), m, m * n, batch);
  }
  gemm_strided_batched(Op::N, Op::N, m, n, k, 1.0, a.data(), m, m * k, b.data(), k, 0, 0.0,
                       c1.data(), m, m * n, batch);
  EXPECT_EQ(c0, c1);
}

TEST(BatchedGemmSharedB, AlphaZeroAndFloatCoverage) {
  // alpha == 0 short-circuits to the beta pass (k never touched, so NaNs in
  // A/B must not propagate); float exercises the narrower GEMM vectors.
  const index_t m = 9, n = 6, k = 5, batch = 7;
  auto a = random_vec<double>(m * k * batch, 80);
  a[0] = std::numeric_limits<double>::quiet_NaN();
  auto b = random_vec<double>(k * n, 81);
  b[0] = std::numeric_limits<double>::quiet_NaN();
  auto c0 = random_vec<double>(m * n * batch, 82);
  auto c1 = c0;
  gemm_strided_batched(Op::N, Op::N, m, n, k, 0.0, a.data(), m, m * k, b.data(), k, 0, 0.5,
                       c0.data(), m, m * n, batch);
  for (index_t g = 0; g < batch; ++g)
    gemm(Op::N, Op::N, m, n, k, 0.0, a.data() + g * m * k, m, b.data(), k, 0.5,
         c1.data() + g * m * n, m);
  EXPECT_EQ(c0, c1);
  check_shared_b_exact<float>(Op::N, 11, 5, 6, 9, 1.5f, 0.25f, 90);
  check_shared_b_exact<float>(Op::T, 33, 4, 10, 5, 1.0f, 0.0f, 91);
}

TEST(BatchedGemmSharedB, FlopsCountedOnceAtEntry) {
  // obs::compare_traffic_with_model cross-checks the ledger against the
  // model, so blas.gemm_batched must carry exactly batch · gemm_flops per
  // call — added once at the public entry point, by BOTH dispatch paths (the
  // fused shared-B path and the per-item loop), with no inner double-counting.
  obs::disable();
  obs::reset();
  obs::enable_metrics(true);
  obs::enable_traffic(true);
  auto& fused = obs::Metrics::global().counter("blas.batched_fused");
  const auto flops = [] {
    const auto snap = obs::TrafficLedger::global().snapshot();
    return snap.at("blas.gemm_batched").flops;
  };
  const index_t m = 10, n = 6, k = 7, batch = 5;
  auto a = random_vec<double>(m * k * batch, 95);
  auto b = random_vec<double>(k * n * batch, 96);
  std::vector<double> c(static_cast<std::size_t>(m * n * batch), 0.0);
  gemm_strided_batched(Op::N, Op::N, m, n, k, 1.0, a.data(), m, m * k, b.data(), k, 0, 0.0,
                       c.data(), m, m * n, batch);
  EXPECT_DOUBLE_EQ(flops(), double(batch) * gemm_flops(m, n, k));
  EXPECT_DOUBLE_EQ(fused.value(), 1.0);
  obs::TrafficLedger::global().reset();
  gemm_strided_batched(Op::N, Op::N, m, n, k, 1.0, a.data(), m, m * k, b.data(), k, k * n, 0.0,
                       c.data(), m, m * n, batch);
  EXPECT_DOUBLE_EQ(flops(), double(batch) * gemm_flops(m, n, k));
  EXPECT_DOUBLE_EQ(fused.value(), 1.0);  // per-item path is not "fused"
  obs::disable();
  obs::reset();
}

TEST(Gemv, NoTransMatchesGemm) {
  const index_t m = 23, n = 11;
  auto a = random_vec<double>(m * n, 50);
  auto x = random_vec<double>(n, 51);
  std::vector<double> y0(m, 0), y1(m, 0);
  gemv(Op::N, m, n, 1.0, a.data(), m, x.data(), 1, 0.0, y0.data(), 1);
  gemm(Op::N, Op::N, m, 1, n, 1.0, a.data(), m, x.data(), n, 0.0, y1.data(), m);
  EXPECT_LT(rel_l2_error(y0.data(), y1.data(), m), 1e-14);
}

TEST(Gemv, TransposeAndStrides) {
  const index_t m = 9, n = 14;
  auto a = random_vec<double>(m * n, 52);
  auto x = random_vec<double>(2 * m, 53);
  std::vector<double> y(3 * n, 7.0);
  // y[j*3] = sum_i A[i,j] * x[i*2], beta = 0
  gemv(Op::T, n, m, 1.0, a.data(), m, x.data(), 2, 0.0, y.data(), 3);
  for (index_t j = 0; j < n; ++j) {
    double expect = 0;
    for (index_t i = 0; i < m; ++i) expect += a[i + j * m] * x[2 * i];
    EXPECT_NEAR(y[3 * j], expect, 1e-12);
    if (j < n - 1) {
      EXPECT_EQ(y[3 * j + 1], 7.0);  // strided gaps untouched
      EXPECT_EQ(y[3 * j + 2], 7.0);
    }
  }
}

TEST(Gemv, OnesVectorComputesColumnSums) {
  // The §4.8 reduction computes r_p with a GEMV against a ones vector.
  const index_t m = 6, n = 8;
  auto a = random_vec<double>(m * n, 54);
  std::vector<double> ones(m, 1.0), r(n, 0.0);
  gemv(Op::T, n, m, 1.0, a.data(), m, ones.data(), 1, 0.0, r.data(), 1);
  for (index_t j = 0; j < n; ++j) {
    double expect = 0;
    for (index_t i = 0; i < m; ++i) expect += a[i + j * m];
    EXPECT_NEAR(r[j], expect, 1e-12);
  }
}

TEST(GemmFlops, CountFormula) {
  EXPECT_EQ(gemm_flops(2, 3, 4), 48.0);
}

}  // namespace
}  // namespace fmmfft::blas
