// Test-only oracles for the data-movement kernels: the pre-fusion blocked
// transpose, the staged pack/copy/unpack all-to-all, and the
// barrier-separated two-phase (pencil) all-to-all. Each is written over the
// public collective/fabric API and moves exactly the elements of its
// production counterpart, so tests memcmp the results and compare the
// fabric and traffic-ledger bytes. bench_native times them as contrast
// rows.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "common/types.hpp"
#include "dist/collectives.hpp"
#include "dist/procgrid.hpp"
#include "obs/traffic.hpp"
#include "sim/fabric.hpp"

namespace fmmfft {

/// Reference blocked transpose (the pre-fusion implementation): simple
/// 32×32 blocking with a strided write stream. The equivalence oracle for
/// the cache-oblivious transpose_blocked and the bench contrast row.
template <typename T>
void transpose_blocked_ref(const T* x, T* y, index_t rows, index_t cols) {
  FMMFFT_CHECK(x != y);
  FMMFFT_TRAFFIC_RW("transpose", double(rows) * double(cols) * sizeof(T),
                    double(rows) * double(cols) * sizeof(T), 0);
  constexpr index_t kB = 32;
  for (index_t j0 = 0; j0 < cols; j0 += kB) {
    const index_t j1 = std::min(j0 + kB, cols);
    for (index_t i0 = 0; i0 < rows; i0 += kB) {
      const index_t i1 = std::min(i0 + kB, rows);
      for (index_t j = j0; j < j1; ++j)
        for (index_t i = i0; i < i1; ++i) y[j + i * cols] = x[i + j * rows];
    }
  }
}

namespace dist {

/// Factorized two-phase Π_{M,P} over a pr×pc processor grid (the Dalcin /
/// AccFFT pencil exchange): phase 1 exchanges within each grid *row*
/// (pc-member sub-communicators, pc-1 messages of N/(G·pc) elements per
/// device), phase 2 within each grid *column* (pr-member sub-communicators,
/// pr-1 messages of N/(G·pr)). Sender (i,j) routes the block destined for
/// (ii,jj) via the intermediate (i,jj); the row hop is a same-orientation
/// copy into `work` and only the column hop transposes, so the result is
/// bit-identical to the one-phase all_to_all_permute_mp. A barrier-separated
/// oracle for the chunk-pipelined pencil exchange of Dist2dFft's task graph,
/// built from the same fused pair messages. Each phase's pairs write
/// disjoint blocks and stripe across the pool. `work[t]` needs N/G elements
/// per device and must be distinct from in/out.
template <typename T>
void all_to_all_permute_mp_grid(sim::Fabric& fabric, const std::vector<T*>& in,
                                const std::vector<T*>& out, const std::vector<T*>& work,
                                index_t m, index_t p, const ProcGrid& grid,
                                const std::string& row_tag = "A2A-ROW",
                                const std::string& col_tag = "A2A-COL") {
  const int g = fabric.num_devices();
  FMMFFT_CHECK((index_t)in.size() == g && (index_t)out.size() == g &&
               (index_t)work.size() == g);
  FMMFFT_CHECK(m % g == 0 && p % g == 0);
  FMMFFT_CHECK(grid.devices() == g);
  const int pr = grid.pr, pc = grid.pc;
  const index_t mg = m / g, pg = p / g;
  const index_t block = pg * mg;  // one (sender, final-receiver) pair's elements
  FMMFFT_ASSERT(in[0] != out[0] && in[0] != work[0] && out[0] != work[0]);
  const bool f32 = sizeof(real_of_t<T>) == 4;
  // Phase 1 — row sub-communicators: sender s = (i,j) ships to t = (i,jj)
  // the pr chunks of p destined for column jj, keeping p-fastest order.
  // work[t] layout: [sender column j][final row ii][pm·pg + pp].
  parallel_for(
      index_t(g) * pc,
      [&](index_t q0, index_t q1) {
        for (index_t q = q0; q < q1; ++q) {
          const int s = int(q / pc), jj = int(q % pc);
          const int i = grid.row_of(s), j = grid.col_of(s);
          const int t = grid.device(i, jj);
          detail::a2a_pair_copy_strided(
              in[(std::size_t)s] + index_t(jj) * pg, work[(std::size_t)t] + index_t(j) * pr * block,
              /*row_elems=*/pg, /*rows=*/mg, /*in_ld=*/p, /*out_ld=*/pg,
              /*batch=*/index_t(pr), /*in_bstride=*/index_t(pc) * pg, /*out_bstride=*/block,
              detail::A2aScope::Row);
          fabric.record(s, t, double(pr) * double(block) * sizeof(T), row_tag, f32);
        }
      },
      /*grain=*/1);
  // Phase 2 — column sub-communicators: t = (i,jj) scatters batch ii of
  // every sender column j into d = (ii,jj)'s final cyclic layout.
  parallel_for(
      index_t(g) * pr,
      [&](index_t q0, index_t q1) {
        for (index_t q = q0; q < q1; ++q) {
          const int t = int(q / pr), ii = int(q % pr);
          const int i = grid.row_of(t), jj = grid.col_of(t);
          const int d = grid.device(ii, jj);
          detail::a2a_pair_fused_strided(
              work[(std::size_t)t] + index_t(ii) * block, out[(std::size_t)d] + index_t(i) * pc * mg,
              /*nr=*/pg, /*nc=*/mg, /*in_ld=*/pg, /*out_ld=*/m, /*batch=*/index_t(pc),
              /*in_bstride=*/index_t(pr) * block, /*out_bstride=*/mg, detail::A2aScope::Col);
          fabric.record(t, d, double(pc) * double(block) * sizeof(T), col_tag, f32);
        }
      },
      /*grain=*/1);
}

/// Staged reference all-to-all: pack into a send buffer, fabric copy,
/// unpack — the pre-fusion data path. The bit-identity oracle for the fused
/// all_to_all_permute_mp and the bench contrast. Staging lives in the
/// calling thread's ScratchArena, so steady-state calls allocate nothing.
template <typename T>
void all_to_all_permute_mp_staged(sim::Fabric& fabric, const std::vector<T*>& in,
                                  const std::vector<T*>& out, index_t m, index_t p,
                                  const std::string& tag) {
  const int g = fabric.num_devices();
  FMMFFT_CHECK((index_t)in.size() == g && (index_t)out.size() == g);
  FMMFFT_CHECK(m % g == 0 && p % g == 0);
  const index_t mg = m / g, pg = p / g;
  ScratchBlock<T> stage_src(mg * pg), stage_dst(mg * pg);
  for (int r = 0; r < g; ++r) {        // sender: owns m-range [r*mg, ...)
    for (int rr = 0; rr < g; ++rr) {   // receiver: owns p-range [rr*pg, ...)
      // Pack elements (p, m) with p in rr's range from r's input slab.
      // Input slab local index of global n = p + m*P is n - r*mg*p_total.
      index_t k = 0;
      FMMFFT_TRAFFIC_RW("a2a.pack", double(mg) * double(pg) * sizeof(T),
                        double(mg) * double(pg) * sizeof(T), 0);
      for (index_t pm = 0; pm < mg; ++pm)       // local m offset
        for (index_t pp = 0; pp < pg; ++pp)     // local p offset
          stage_src[k++] = in[(std::size_t)r][(rr * pg + pp) + pm * p];
      fabric.send(r, rr, stage_src.data(), stage_dst.data(), mg * pg, tag);
      // Unpack into rr's output slab: local index of j = m + p*M is
      // j - rr*pg*m_total.
      k = 0;
      FMMFFT_TRAFFIC_RW("a2a.unpack", double(mg) * double(pg) * sizeof(T),
                        double(mg) * double(pg) * sizeof(T), 0);
      for (index_t pm = 0; pm < mg; ++pm)
        for (index_t pp = 0; pp < pg; ++pp)
          out[(std::size_t)rr][(r * mg + pm) + pp * m] = stage_dst[k++];
    }
  }
}

}  // namespace dist
}  // namespace fmmfft
