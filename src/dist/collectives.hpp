// Collective operations over the simulated fabric: the distributed
// block-to-cyclic transpose (one all-to-all), ring halo exchange, and
// allgather. Message granularity is one (src, dst) pair per device pair, so
// fabric byte counts correspond to real message traffic.
//
// The all-to-all is *fused*: devices share one address space in the
// simulator, so the per-pair message is a single strided gather-scatter
// from the producer's slab straight into the consumer's final layout
// (peer-to-peer strided writes, the AccFFT fused-pack discipline). Each
// element is read once and written once — no staging buffers, no extra
// round trip — and the fabric records the payload via Fabric::record so
// message accounting is identical to a staged pack/copy/unpack path (whose
// test oracle lives in tests/dist_oracles.hpp).
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/permute.hpp"
#include "common/threadpool.hpp"
#include "common/types.hpp"
#include "sim/fabric.hpp"

namespace fmmfft::dist {

namespace detail {

/// Fused message of the Π_{M,P} all-to-all for ordered pair (r → rr),
/// rows [row_lo, row_hi) of sender r's local m-range: scatter
/// out[rr][(r·mg + pm) + pp·m] = in[r][(rr·pg + pp) + pm·p] in one strided
/// cache-oblivious pass. Records the gather side as a2a.pack (reads) and
/// the scatter side as a2a.unpack (writes): one read + one write per
/// element, half the staged path's four. Outside a pool chunk (an inline
/// graph drain) row stripes of ≥ 2^12 elements split across the pool;
/// they are disjoint pure copies, so the split cannot change bits.
template <typename T>
void a2a_pair_fused(const T* in_r, T* out_rr, int r, int rr, index_t m, index_t p,
                    index_t mg, index_t pg, index_t row_lo, index_t row_hi) {
  const index_t rows = row_hi - row_lo;
  if (rows <= 0) return;
  const double payload = double(rows) * double(pg) * sizeof(T);
  FMMFFT_TRAFFIC_RW("a2a.pack", payload, 0, 0);
  FMMFFT_TRAFFIC_RW("a2a.unpack", 0, payload, 0);
  // Element (pp, pm): src at (rr·pg + pp) + pm·p (pg×rows, ld p), dst at
  // (r·mg + pm) + pp·m — exactly a pg×rows strided transpose.
  const T* src = in_r + rr * pg + row_lo * p;
  T* dst = out_rr + r * mg + row_lo;
  parallel_for(
      rows,
      [&](index_t lo, index_t hi) {
        fmmfft::detail::transpose_strided_serial(src + lo * p, p, dst + lo, m, pg, hi - lo);
      },
      /*grain=*/std::max<index_t>(1, (index_t(1) << 12) / pg));
}

/// Which exchange a pair message belongs to, for the traffic ledger: the
/// one-phase global all-to-all, or the row / column sub-communicator phase
/// of a pencil two-phase exchange. The ledger macro wants string literals,
/// so the scope switches between three literal call sites.
enum class A2aScope { Global, Row, Col };

inline void a2a_record(A2aScope scope, double payload) {
  switch (scope) {
    case A2aScope::Global:
      FMMFFT_TRAFFIC_RW("a2a.pack", payload, 0, 0);
      FMMFFT_TRAFFIC_RW("a2a.unpack", 0, payload, 0);
      break;
    case A2aScope::Row:
      FMMFFT_TRAFFIC_RW("a2a.row.pack", payload, 0, 0);
      FMMFFT_TRAFFIC_RW("a2a.row.unpack", 0, payload, 0);
      break;
    case A2aScope::Col:
      FMMFFT_TRAFFIC_RW("a2a.col.pack", payload, 0, 0);
      FMMFFT_TRAFFIC_RW("a2a.col.unpack", 0, payload, 0);
      break;
  }
}

/// Generalized fused pair message: `batch` independent nr×nc strided
/// transposes (y[j + i·out_ld] = x[i + j·in_ld] per batch), the building
/// block of the 3D pencil's sub-communicator exchanges. One read + one write per
/// element, recorded under the scope's pack/unpack keys.
template <typename T>
void a2a_pair_fused_strided(const T* in, T* out, index_t nr, index_t nc, index_t in_ld,
                            index_t out_ld, index_t batch, index_t in_bstride,
                            index_t out_bstride, A2aScope scope) {
  if (nr <= 0 || nc <= 0 || batch <= 0) return;
  a2a_record(scope, double(batch) * double(nr) * double(nc) * sizeof(T));
  for (index_t b = 0; b < batch; ++b)
    fmmfft::detail::transpose_strided_serial(in + b * in_bstride, in_ld,
                                             out + b * out_bstride, out_ld, nr, nc);
}

}  // namespace detail

/// Distributed Π_{M,P}: y[m + p·M] = x[p + m·P] with both x and y block
/// partitioned into G contiguous slabs of N/G elements. Rank r owns
/// m ∈ [r·M/G, (r+1)·M/G) on the input side and p ∈ [r·P/G, (r+1)·P/G)
/// on the output side; every ordered pair exchanges (M/G)·(P/G) elements.
/// Pairs write disjoint output blocks, so they stripe across the pool;
/// pure copies keep the result independent of the worker count.
template <typename T>
void all_to_all_permute_mp(sim::Fabric& fabric, const std::vector<T*>& in,
                           const std::vector<T*>& out, index_t m, index_t p,
                           const std::string& tag) {
  const int g = fabric.num_devices();
  FMMFFT_CHECK((index_t)in.size() == g && (index_t)out.size() == g);
  FMMFFT_CHECK(m % g == 0 && p % g == 0);
  const index_t mg = m / g, pg = p / g;
  FMMFFT_ASSERT(in[0] != out[0]);  // fused scatter requires distinct slabs
  parallel_for(
      index_t(g) * g,
      [&](index_t q0, index_t q1) {
        for (index_t q = q0; q < q1; ++q) {
          const int r = int(q / g), rr = int(q % g);  // sender r, receiver rr
          detail::a2a_pair_fused(in[(std::size_t)r], out[(std::size_t)rr], r, rr, m, p, mg,
                                 pg, 0, mg);
          fabric.record(r, rr, double(mg) * double(pg) * sizeof(T), tag,
                        sizeof(real_of_t<T>) == 4);
        }
      },
      /*grain=*/1);
}

/// Cyclic ring halo exchange: every rank receives `halo_elems` elements
/// from each neighbour. `lo_dst[r]` receives the *last* halo_elems of
/// rank r-1's interior (`hi_src`), `hi_dst[r]` the *first* halo_elems of
/// rank r+1's interior (`lo_src`). Sends are direct interior-to-halo
/// copies — no staging to hoist.
template <typename T>
void halo_exchange_ring(sim::Fabric& fabric, const std::vector<const T*>& lo_src,
                        const std::vector<const T*>& hi_src, const std::vector<T*>& lo_dst,
                        const std::vector<T*>& hi_dst, index_t halo_elems,
                        const std::string& tag) {
  const int g = fabric.num_devices();
  for (int r = 0; r < g; ++r) {
    const int left = (r + g - 1) % g, right = (r + 1) % g;
    fabric.send(left, r, hi_src[(std::size_t)left], lo_dst[(std::size_t)r], halo_elems, tag);
    fabric.send(right, r, lo_src[(std::size_t)right], hi_dst[(std::size_t)r], halo_elems, tag);
  }
}

/// Allgather: rank r contributes `slab_elems` at slab_src[r]; afterwards
/// every rank's `full_dst` holds all G slabs in rank order. The local slab
/// is copied locally (no traffic recorded). Sends land in the destination
/// slot directly — no staging to hoist.
template <typename T>
void allgather(sim::Fabric& fabric, const std::vector<const T*>& slab_src,
               const std::vector<T*>& full_dst, index_t slab_elems, const std::string& tag) {
  const int g = fabric.num_devices();
  for (int r = 0; r < g; ++r)
    for (int rr = 0; rr < g; ++rr)
      fabric.send(r, rr, slab_src[(std::size_t)r], full_dst[(std::size_t)rr] + r * slab_elems,
                  slab_elems, tag);
}

}  // namespace fmmfft::dist
