// Blocked, packed GEMM with a register-tiled microkernel.
//
// The classic three-level blocking (GotoBLAS structure): panels of A are
// packed into row-major micropanels of height MR, panels of B into
// column-major micropanels of width NR, and an MR×NR register microkernel
// runs over the packed data. Edges are zero-padded in the packs so the
// microkernel is branch-free; stores mask the valid region.
//
// The microkernel is vectorized with portable GCC/Clang vector extensions
// (one FMA-friendly accumulate per column vector per k step); a scalar
// kernel with identical accumulation order is selected at compile time on
// toolchains without vector support. Large single GEMMs additionally
// shard their MC macro-loop across the pool (the batched entry point was
// already pool-parallel), with bit-identical results at any thread count:
// each MC×NR block is computed by exactly one task in a fixed order.
#include "blas/blas.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "blas/simd.hpp"
#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/threadpool.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::blas {
namespace {

// Blocking parameters sized for a ~32KB L1 / 1MB L2 class core. MR widens
// to 16 rows on 64-byte ISAs so the microkernel carries 8 independent FMA
// chains (4 chains can't hide a 4-cycle FMA latency). Tile shape is pure
// spatial blocking: each C element still accumulates its k products in
// ascending order, so results are bit-identical at any MR/NR.
#if FMMFFT_SIMD && FMMFFT_SIMD_BYTES == 64
constexpr index_t MR = 16;
#else
constexpr index_t MR = 8;
#endif
constexpr index_t NR = 4;
constexpr index_t MC = 64;
constexpr index_t NC = 256;
constexpr index_t KC = 256;

// ISA dispatch lives in blas/simd.hpp, shared with the FMM's custom
// kernels. GemmVec caps float vectors at MR lanes so one micropanel
// k-slice is at most a whole number of vectors.
#if FMMFFT_SIMD
#define FMMFFT_GEMM_SIMD 1
#endif

template <typename T>
inline T at(const T* a, index_t lda, Op trans, index_t i, index_t j) {
  // Element (i, j) of op(A) given the raw column-major storage of A.
  return trans == Op::N ? a[i + j * lda] : a[j + i * lda];
}

/// Pack an mc×kc block of op(A) into micropanels: panel p holds rows
/// [p*MR, p*MR+MR) for all k, contiguous as [k*MR + r]. Rows past mc are 0.
template <typename T>
void pack_a(const T* a, index_t lda, Op trans, index_t i0, index_t k0, index_t mc, index_t kc,
            T* pack) {
  index_t np = ceil_div(mc, MR);
  for (index_t p = 0; p < np; ++p) {
    T* dst = pack + p * MR * kc;
    index_t rbase = p * MR;
    for (index_t k = 0; k < kc; ++k)
      for (index_t r = 0; r < MR; ++r) {
        index_t i = rbase + r;
        dst[k * MR + r] = i < mc ? at(a, lda, trans, i0 + i, k0 + k) : T(0);
      }
  }
}

/// Pack a kc×nc block of op(B) into micropanels: panel q holds cols
/// [q*NR, q*NR+NR) for all k, contiguous as [k*NR + c]. Cols past nc are 0.
template <typename T>
void pack_b(const T* b, index_t ldb, Op trans, index_t k0, index_t j0, index_t kc, index_t nc,
            T* pack) {
  index_t nq = ceil_div(nc, NR);
  for (index_t q = 0; q < nq; ++q) {
    T* dst = pack + q * NR * kc;
    index_t cbase = q * NR;
    for (index_t k = 0; k < kc; ++k)
      for (index_t c = 0; c < NR; ++c) {
        index_t j = cbase + c;
        dst[k * NR + c] = j < nc ? at(b, ldb, trans, k0 + k, j0 + j) : T(0);
      }
  }
}

/// Masked accumulate of the finished register tile into C:
/// C[valid] += alpha * acc (C was pre-scaled by beta once per gemm).
template <typename T>
inline void store_tile(const T* acc, T alpha, T* c, index_t ldc, index_t mr, index_t nr) {
  if (mr == MR && nr == NR) {
    for (index_t j = 0; j < NR; ++j)
      for (index_t i = 0; i < MR; ++i) c[i + j * ldc] += alpha * acc[i + j * MR];
  } else {
    for (index_t j = 0; j < nr; ++j)
      for (index_t i = 0; i < mr; ++i) c[i + j * ldc] += alpha * acc[i + j * MR];
  }
}

/// First-KC-pass store for beta == 0: writes C instead of accumulating, so
/// the batch-fused path never needs a separate zeroing pass over C. The
/// explicit T(0) + x reproduces "zero, then accumulate" exactly (IEEE 0+x,
/// including the +0.0 result for x == -0.0), keeping the fast path
/// bit-identical to the per-item path.
template <typename T>
inline void store_tile_assign(const T* acc, T alpha, T* c, index_t ldc, index_t mr, index_t nr) {
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) c[i + j * ldc] = T(0) + alpha * acc[i + j * MR];
}

/// Scatter variants of store_tile for the batch-fused path: row i of the
/// tile lands at crow[i] (column step ldc). Row pointers let one register
/// tile span an item boundary in the stacked batch without branching.
template <typename T>
inline void store_tile_rows(const T* acc, T alpha, T* const* crow, index_t ldc, index_t mr,
                            index_t nr) {
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) crow[i][j * ldc] += alpha * acc[i + j * MR];
}

template <typename T>
inline void store_tile_rows_assign(const T* acc, T alpha, T* const* crow, index_t ldc,
                                   index_t mr, index_t nr) {
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) crow[i][j * ldc] = T(0) + alpha * acc[i + j * MR];
}

/// MR×NR microkernel over packed panels: tile = sum_k apanel[k]·bpanel[k]^T.
/// Computes the full (zero-padded) register tile; callers mask on store.
#ifdef FMMFFT_GEMM_SIMD
template <typename T>
void microkernel_tile(index_t kc, const T* ap, const T* bp, T* tile) {
  using V = typename simd::GemmVec<T>::vec;
  constexpr index_t VL = index_t(sizeof(V) / sizeof(T));
  constexpr index_t NV = MR / VL;  // vectors per register-tile column
  static_assert(MR % VL == 0);
  // One accumulator vector per (row-vector, column); a k step is NV aligned
  // loads of A, NR broadcasts of B, and NV*NR fused multiply-adds. Rows are
  // independent accumulators, so vectorizing over i keeps each element's
  // addition order identical to the scalar kernel.
  V acc[NV][NR] = {};
  for (index_t k = 0; k < kc; ++k) {
    const T* a = ap + k * MR;  // micropanel k-slices stay vector-aligned
    const T* b = bp + k * NR;
    V av[NV];
    for (index_t v = 0; v < NV; ++v)
      av[v] = *reinterpret_cast<const V*>(a + v * VL);
    for (index_t j = 0; j < NR; ++j) {
      V bj;
      for (index_t l = 0; l < VL; ++l) bj[l] = b[j];  // lowered to a broadcast
      for (index_t v = 0; v < NV; ++v) acc[v][j] += av[v] * bj;
    }
  }
  for (index_t j = 0; j < NR; ++j)
    for (index_t v = 0; v < NV; ++v)
      *reinterpret_cast<V*>(tile + j * MR + v * VL) = acc[v][j];
}
#else
template <typename T>
void microkernel_tile(index_t kc, const T* ap, const T* bp, T* tile) {
  for (index_t i = 0; i < MR * NR; ++i) tile[i] = T(0);
  for (index_t k = 0; k < kc; ++k) {
    const T* a = ap + k * MR;
    const T* b = bp + k * NR;
    for (index_t j = 0; j < NR; ++j) {
      T bj = b[j];
      for (index_t i = 0; i < MR; ++i) tile[i + j * MR] += a[i] * bj;
    }
  }
}
#endif

template <typename T>
void microkernel(index_t kc, T alpha, const T* ap, const T* bp, T* c, index_t ldc, index_t mr,
                 index_t nr) {
  alignas(kAlignment) T tile[MR * NR];
  microkernel_tile(kc, ap, bp, tile);
  store_tile(tile, alpha, c, ldc, mr, nr);
}

/// Full-tile first-KC-pass (beta == 0) microkernel that stores 0 + alpha·acc
/// straight from registers into C, skipping the stack-tile bounce — the
/// dominant per-tile overhead when kc is small (the FMM stages run kc ≤ 36).
/// Assign-only by design: 0 + alpha·acc equals zero-then-accumulate bit for
/// bit whether or not the compiler contracts it into an FMA, but an update
/// store (c + alpha·acc) would round differently under contraction than
/// store_tile's codegen, so updates always go through the shared tile path.
#ifdef FMMFFT_GEMM_SIMD
template <typename T>
void microkernel_store(index_t kc, T alpha, const T* ap, const T* bp, T* c, index_t ldc) {
  using V = typename simd::GemmVec<T>::vec;
  using VU = typename simd::GemmVec<T>::vec_u;
  constexpr index_t VL = index_t(sizeof(V) / sizeof(T));
  constexpr index_t NV = MR / VL;
  V acc[NV][NR] = {};
  for (index_t k = 0; k < kc; ++k) {
    const T* a = ap + k * MR;
    const T* b = bp + k * NR;
    V av[NV];
    for (index_t v = 0; v < NV; ++v)
      av[v] = *reinterpret_cast<const V*>(a + v * VL);
    for (index_t j = 0; j < NR; ++j) {
      V bj;
      for (index_t l = 0; l < VL; ++l) bj[l] = b[j];
      for (index_t v = 0; v < NV; ++v) acc[v][j] += av[v] * bj;
    }
  }
  const V vzero = {};
  for (index_t j = 0; j < NR; ++j)
    for (index_t v = 0; v < NV; ++v) {
      VU* dst = reinterpret_cast<VU*>(c + j * ldc + v * VL);
      *dst = vzero + alpha * acc[v][j];
    }
}
#else
template <typename T>
void microkernel_store(index_t kc, T alpha, const T* ap, const T* bp, T* c, index_t ldc) {
  alignas(kAlignment) T tile[MR * NR];
  microkernel_tile(kc, ap, bp, tile);
  store_tile_assign(tile, alpha, c, ldc, MR, NR);
}
#endif

template <typename T>
struct Workspace {
  Buffer<T> apack{MC * KC};
  Buffer<T> bpack{KC * NC};
};

/// Thread-local pack buffers: GEMMs of one scalar type reuse the workspace
/// across calls, which matters for the many small batched GEMMs in the FMM.
template <typename T>
Workspace<T>& workspace() {
  thread_local Workspace<T> ws;
  return ws;
}

template <typename T>
void gemm_impl(Op transa, Op transb, index_t m, index_t n, index_t k, T alpha, const T* a,
               index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc) {
  FMMFFT_CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0) return;

  // Scale C by beta once, so inner kernels are pure accumulate.
  if (beta == T(0)) {
    for (index_t j = 0; j < n; ++j) std::fill_n(c + j * ldc, m, T(0));
  } else if (beta != T(1)) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) c[i + j * ldc] *= beta;
  }
  if (k == 0 || alpha == T(0)) return;

  // One MC-block of the macro-loop: pack the A block into this thread's
  // workspace and run the microkernel grid against an already-packed B.
  auto run_mc_block = [&](index_t i0, index_t j0, index_t k0, index_t nc, index_t kc,
                          const T* bpack) {
    const index_t mc = std::min(MC, m - i0);
    T* apack = workspace<T>().apack.data();
    pack_a(a, lda, transa, i0, k0, mc, kc, apack);
    const index_t np = ceil_div(mc, MR), nq = ceil_div(nc, NR);
    for (index_t q = 0; q < nq; ++q) {
      const index_t nr = std::min(NR, nc - q * NR);
      for (index_t p = 0; p < np; ++p) {
        const index_t mr = std::min(MR, mc - p * MR);
        microkernel(kc, alpha, apack + p * MR * kc, bpack + q * NR * kc,
                    c + (i0 + p * MR) + (j0 + q * NR) * ldc, ldc, mr, nr);
      }
    }
  };

  // Shard the MC loop across the pool when there are enough blocks to
  // amortize the fork/join. Each worker packs A into its own thread-local
  // workspace; the B panel packed by the caller is shared read-only. The
  // k0 loop stays serial, so every C block accumulates its KC panels in
  // the same order at any thread count (bit-identical results).
  auto& ws = workspace<T>();
  const index_t mc_blocks = ceil_div(m, MC);
  const bool shard_mc = mc_blocks >= 4 && !ThreadPool::in_task() &&
                        !ThreadPool::serial_forced() && ThreadPool::global().workers() > 1;
  for (index_t j0 = 0; j0 < n; j0 += NC) {
    index_t nc = std::min(NC, n - j0);
    for (index_t k0 = 0; k0 < k; k0 += KC) {
      index_t kc = std::min(KC, k - k0);
      pack_b(b, ldb, transb, k0, j0, kc, nc, ws.bpack.data());
      if (shard_mc) {
        const T* bpack = ws.bpack.data();
        parallel_for(
            mc_blocks,
            [&](index_t blk0, index_t blk1) {
              for (index_t blk = blk0; blk < blk1; ++blk)
                run_mc_block(blk * MC, j0, k0, nc, kc, bpack);
            },
            /*grain=*/1);
      } else {
        for (index_t i0 = 0; i0 < m; i0 += MC)
          run_mc_block(i0, j0, k0, nc, kc, ws.bpack.data());
      }
    }
  }
}

/// Pack an mc×kc block of the *stacked* op(A) — batch items laid end to end
/// along the row axis (virtual row v ↦ row v%m of item v/m) — into the same
/// MR-high micropanels pack_a produces. Rows past the stack are zero-padded,
/// so microkernel tiles may straddle item boundaries branch-free.
template <typename T>
void pack_a_batched(const T* a, index_t lda, index_t stride_a, Op trans, index_t m, index_t i0,
                    index_t k0, index_t mc, index_t kc, T* pack) {
  index_t np = ceil_div(mc, MR);
  for (index_t p = 0; p < np; ++p) {
    T* dst = pack + p * MR * kc;
    index_t rbase = p * MR;
    index_t rows = std::min(MR, mc - rbase);
    // Split the panel's rows into runs that stay inside one batch item;
    // each run packs a contiguous sub-block of op(A_item) with unit-stride
    // inner loops (same codegen as pack_a, no per-element item lookup).
    index_t r = 0;
    while (r < rows) {
      index_t vg = i0 + rbase + r;
      const T* ag = a + (vg / m) * stride_a;
      index_t i = vg % m;
      index_t run = std::min(rows - r, m - i);
      if (trans == Op::N) {
        const T* s0 = ag + i + k0 * lda;
        for (index_t k = 0; k < kc; ++k) {
          const T* sk = s0 + k * lda;
          for (index_t rr = 0; rr < run; ++rr) dst[k * MR + r + rr] = sk[rr];
        }
      } else {
        for (index_t rr = 0; rr < run; ++rr) {
          const T* s0 = ag + k0 + (i + rr) * lda;
          for (index_t k = 0; k < kc; ++k) dst[k * MR + r + rr] = s0[k];
        }
      }
      r += run;
    }
    for (; r < MR; ++r)
      for (index_t k = 0; k < kc; ++k) dst[k * MR + r] = T(0);
  }
}

/// Shared-operator batched GEMM (stride_b == 0): every FMM translation stage
/// (S2M/M2M/L2L/L2T) multiplies many small per-box panels by ONE operator, so
/// the B panel is packed once per (NC, KC) tile and reused across the whole
/// batch, and the batch loop is fused into the macro-kernel by stacking the
/// items along the row axis (mtot = m·batch). Small-m items then aggregate
/// into full MR-high microkernel tiles instead of each paying its own edge
/// masking and pack, and the pool parallelizes over the (item × MC-block)
/// grid — mtot/MC units — in one parallel_for instead of batch_count serial
/// gemm_impl calls.
///
/// Bit-identical to the per-item path: beta pre-scale, NC/KC decomposition,
/// pack zero-padding, the microkernel's k order, and alpha-at-store are all
/// unchanged per C element; stacking only changes which register tile an
/// element lives in, never its accumulation order.
template <typename T>
void gemm_batched_shared_b_impl(Op transa, Op transb, index_t m, index_t n, index_t k, T alpha,
                                const T* a, index_t lda, index_t stride_a, const T* b,
                                index_t ldb, T beta, T* c, index_t ldc, index_t stride_c,
                                index_t batch_count) {
  FMMFFT_CHECK(m >= 0 && n >= 0 && k >= 0);
  if (m == 0 || n == 0 || batch_count == 0) return;

  const index_t mtot = m * batch_count;  // stacked row space
  const index_t mc_blocks = ceil_div(mtot, MC);

  // Scale stacked rows [i0, i0+mc) of columns [j0, j0+nc) of C by beta.
  // Scaling an element before anything accumulates into it gives the same
  // value as a whole-matrix pre-pass, so the scale is fused into each MC
  // block's first KC step to keep the C block cache-hot for the stores
  // (the stacked rows partition across blocks — no element scales twice).
  auto scale_c_rows = [&](index_t i0, index_t mc, index_t j0, index_t nc) {
    index_t r = 0;
    while (r < mc) {
      index_t vg = i0 + r;
      T* cg = c + (vg / m) * stride_c + (vg % m);
      index_t run = std::min(mc - r, m - vg % m);
      if (beta == T(0)) {
        for (index_t j = 0; j < nc; ++j) std::fill_n(cg + (j0 + j) * ldc, run, T(0));
      } else {
        for (index_t j = 0; j < nc; ++j) {
          T* col = cg + (j0 + j) * ldc;
          for (index_t i = 0; i < run; ++i) col[i] *= beta;
        }
      }
      r += run;
    }
  };
  if (k == 0 || alpha == T(0)) {
    // The macro-loop below never runs; apply beta up front instead.
    if (beta == T(1)) return;
    parallel_for(
        mc_blocks,
        [&](index_t blk0, index_t blk1) {
          for (index_t blk = blk0; blk < blk1; ++blk)
            scale_c_rows(blk * MC, std::min(MC, mtot - blk * MC), 0, n);
        },
        /*grain=*/1);
    return;
  }

  // One MC-block of the stacked macro-loop. C rows are addressed through
  // per-tile row pointers so a tile straddling an item boundary scatters to
  // the right items; the common all-rows-in-one-item case keeps the plain
  // contiguous store.
  auto run_mc_block = [&](index_t i0, index_t j0, index_t k0, index_t nc, index_t kc,
                          const T* bpack) {
    const index_t mc = std::min(MC, mtot - i0);
    // beta == 0 needs no pass at all — the first KC step assign-stores.
    const bool assign = k0 == 0 && beta == T(0);
    if (k0 == 0 && beta != T(0) && beta != T(1)) scale_c_rows(i0, mc, j0, nc);
    T* apack = workspace<T>().apack.data();
    pack_a_batched(a, lda, stride_a, transa, m, i0, k0, mc, kc, apack);
    const index_t np = ceil_div(mc, MR), nq = ceil_div(nc, NR);
    for (index_t p = 0; p < np; ++p) {
      const index_t mr = std::min(MR, mc - p * MR);
      const index_t v0 = i0 + p * MR;
      T* crow[MR];
      const bool one_item = (v0 / m) == ((v0 + mr - 1) / m);
      if (!one_item)
        for (index_t i = 0; i < mr; ++i) {
          index_t v = v0 + i;
          crow[i] = c + (v / m) * stride_c + (v % m);
        }
      T* ctile = c + (v0 / m) * stride_c + (v0 % m);
      for (index_t q = 0; q < nq; ++q) {
        const index_t nr = std::min(NR, nc - q * NR);
        const index_t joff = (j0 + q * NR) * ldc;
        // Register-direct store only on the assign pass: there the one extra
        // rounding (0 + alpha·acc vs the tile path's zero-then-accumulate)
        // provably cannot change a bit even if the compiler contracts it.
        // Update stores must round exactly like the per-item path's
        // store_tile, so they go through the same function.
        if (one_item && mr == MR && nr == NR && assign) {
          microkernel_store(kc, alpha, apack + p * MR * kc, bpack + q * NR * kc, ctile + joff,
                            ldc);
          continue;
        }
        alignas(kAlignment) T tile[MR * NR];
        microkernel_tile(kc, apack + p * MR * kc, bpack + q * NR * kc, tile);
        if (one_item) {
          if (assign)
            store_tile_assign(tile, alpha, ctile + joff, ldc, mr, nr);
          else
            store_tile(tile, alpha, ctile + joff, ldc, mr, nr);
        } else {
          T* crowj[MR];
          for (index_t i = 0; i < mr; ++i) crowj[i] = crow[i] + joff;
          if (assign)
            store_tile_rows_assign(tile, alpha, crowj, ldc, mr, nr);
          else
            store_tile_rows(tile, alpha, crowj, ldc, mr, nr);
        }
      }
    }
  };

  // As in gemm_impl: B is packed once per (NC, KC) tile by the caller thread
  // and shared read-only; the k0 loop stays serial so every C element
  // accumulates its KC panels in order at any thread count.
  auto& ws = workspace<T>();
  for (index_t j0 = 0; j0 < n; j0 += NC) {
    index_t nc = std::min(NC, n - j0);
    for (index_t k0 = 0; k0 < k; k0 += KC) {
      index_t kc = std::min(KC, k - k0);
      pack_b(b, ldb, transb, k0, j0, kc, nc, ws.bpack.data());
      const T* bpack = ws.bpack.data();
      parallel_for(
          mc_blocks,
          [&](index_t blk0, index_t blk1) {
            for (index_t blk = blk0; blk < blk1; ++blk)
              run_mc_block(blk * MC, j0, k0, nc, kc, bpack);
          },
          /*grain=*/1);
    }
  }
}

}  // namespace

const char* simd_label() { return simd::width_label(); }

template <typename T>
void gemm(Op transa, Op transb, index_t m, index_t n, index_t k, T alpha, const T* a,
          index_t lda, const T* b, index_t ldb, T beta, T* c, index_t ldc) {
  FMMFFT_SPAN("GEMM");
  // Compulsory operand traffic: A and B in, C out (plus C in when beta != 0).
  FMMFFT_TRAFFIC_RW("blas.gemm",
                    (double(m) * double(k) + double(k) * double(n) +
                     (beta != T(0) ? double(m) * double(n) : 0.0)) *
                        sizeof(T),
                    double(m) * double(n) * sizeof(T), gemm_flops(m, n, k));
  gemm_impl(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

template <typename T>
void gemm_strided_batched(Op transa, Op transb, index_t m, index_t n, index_t k, T alpha,
                          const T* a, index_t lda, index_t stride_a, const T* b, index_t ldb,
                          index_t stride_b, T beta, T* c, index_t ldc, index_t stride_c,
                          index_t batch_count) {
  FMMFFT_CHECK(batch_count >= 0);
  FMMFFT_SPAN("BatchedGEMM");
  // Counted once here, at the public entry point, per problem instance:
  // neither inner path touches the ledger, so the total is path-independent.
  // The shared-B fused path still counts B once per batch item (its actual
  // reuse of the packed B shows up as achieved bandwidth above the roof).
  FMMFFT_TRAFFIC_RW("blas.gemm_batched",
                    double(batch_count) *
                        (double(m) * double(k) + double(k) * double(n) +
                         (beta != T(0) ? double(m) * double(n) : 0.0)) *
                        sizeof(T),
                    double(batch_count) * double(m) * double(n) * sizeof(T),
                    double(batch_count) * gemm_flops(m, n, k));
  if (stride_b == 0 && batch_count > 1) {
    // Shared operator: fuse the batch into one stacked macro-kernel that
    // packs B once per (NC, KC) tile (see gemm_batched_shared_b_impl).
    FMMFFT_COUNT("blas.batched_fused", 1);
    gemm_batched_shared_b_impl(transa, transb, m, n, k, alpha, a, lda, stride_a, b, ldb, beta,
                               c, ldc, stride_c, batch_count);
    return;
  }
  // Problem instances are independent; share them across the pool (each
  // worker has its own thread-local pack workspace).
  parallel_for(
      batch_count,
      [&](index_t g0, index_t g1) {
        for (index_t g = g0; g < g1; ++g)
          gemm_impl(transa, transb, m, n, k, alpha, a + g * stride_a, lda, b + g * stride_b,
                    ldb, beta, c + g * stride_c, ldc);
      },
      /*grain=*/1);
}

template <typename T>
void gemv(Op trans, index_t m, index_t n, T alpha, const T* a, index_t lda, const T* x,
          index_t incx, T beta, T* y, index_t incy) {
  FMMFFT_SPAN("GEMV");
  FMMFFT_TRAFFIC_RW("blas.gemv",
                    (double(m) * double(n) + double(n) +
                     (beta != T(0) ? double(m) : 0.0)) *
                        sizeof(T),
                    double(m) * sizeof(T), 2.0 * double(m) * double(n));
  // op(A) is m×n. Row/column traversal is picked so A is streamed in order.
  if (trans == Op::N) {
    // BLAS semantics: beta == 0 means y is write-only (never read).
    for (index_t i = 0; i < m; ++i) y[i * incy] = beta == T(0) ? T(0) : y[i * incy] * beta;
    for (index_t j = 0; j < n; ++j) {
      T xj = alpha * x[j * incx];
      const T* col = a + j * lda;
      for (index_t i = 0; i < m; ++i) y[i * incy] += col[i] * xj;
    }
  } else {
    for (index_t i = 0; i < m; ++i) {
      const T* col = a + i * lda;  // row i of op(A) = column i of A
      T s = 0;
      for (index_t j = 0; j < n; ++j) s += col[j] * x[j * incx];
      y[i * incy] = alpha * s + (beta == T(0) ? T(0) : beta * y[i * incy]);
    }
  }
}

#define FMMFFT_INSTANTIATE_BLAS(T)                                                             \
  template void gemm<T>(Op, Op, index_t, index_t, index_t, T, const T*, index_t, const T*,     \
                        index_t, T, T*, index_t);                                              \
  template void gemm_strided_batched<T>(Op, Op, index_t, index_t, index_t, T, const T*,        \
                                        index_t, index_t, const T*, index_t, index_t, T, T*,   \
                                        index_t, index_t, index_t);                            \
  template void gemv<T>(Op, index_t, index_t, T, const T*, index_t, const T*, index_t, T, T*,  \
                        index_t);

FMMFFT_INSTANTIATE_BLAS(float)
FMMFFT_INSTANTIATE_BLAS(double)

}  // namespace fmmfft::blas
