#include "fmm/engine.hpp"

#include <algorithm>
#include <cstring>

#include "blas/blas.hpp"
#include "blas/simd.hpp"
#include "common/error.hpp"
#include "common/math.hpp"
#include "common/threadpool.hpp"
#include "common/timer.hpp"
#include "fmm/operators.hpp"
#include "obs/obs.hpp"
#include "obs/traffic.hpp"

namespace fmmfft::fmm {
namespace {

template <typename T>
Buffer<T> cast_buffer(const std::vector<double>& src) {
  Buffer<T> dst(static_cast<index_t>(src.size()));
  for (index_t i = 0; i < dst.size(); ++i) dst[i] = static_cast<T>(src[(std::size_t)i]);
  return dst;
}

/// Ledger scope for a non-Copy stage: fold the per-level "-<digits>"
/// suffix ("M2M-7" -> "fmm.M2M") so launches of one kernel aggregate;
/// "M2L-B" keeps its suffix (distinct operator and traffic shape).
std::string traffic_scope(const std::string& name) {
  std::string base = name;
  const auto dash = base.rfind('-');
  if (dash != std::string::npos && dash + 1 < base.size()) {
    bool digits = true;
    for (std::size_t i = dash + 1; i < base.size(); ++i)
      digits = digits && base[i] >= '0' && base[i] <= '9';
    if (digits) base.resize(dash);
  }
  return "fmm." + base;
}

/// Feed one executed stage's exact counts and measured seconds into the
/// traffic ledger. Halo-fill copies go to halo.cyclic (payload read once,
/// written once) so the fmm.* scopes stay compute-only and launch-for-launch
/// comparable with model::exact_fmm_counts (which has no Copy entries).
///
/// `f32` engines (the native fp32 shell, and the mixed-precision
/// translation pipeline under an fp64 shell) append ".f32" to their ledger
/// scopes: the bytes in one scope are then always at one element width, so
/// the §5 cross-check and the per-precision traffic reports stay exact
/// when two widths coexist in a run. Prefix sums ("fmm.") aggregate both.
void count_stage(const StageStats& st, bool f32) {
  const bool copy = st.kernel == KernelClass::Copy;
  if (!copy) FMMFFT_HIST("fmm.launch_us", st.seconds * 1e6);
  if (!obs::traffic_enabled()) return;
  auto& sc = obs::TrafficLedger::global().scope(
      (copy ? std::string("halo.cyclic") : traffic_scope(st.name)) + (f32 ? ".f32" : ""));
  if (copy)
    sc.add(st.mem_bytes, st.mem_bytes, 0.0, 0.0);
  else
    sc.add(st.bytes_read, st.bytes_written, 0.0, st.flops);
  sc.add_seconds(st.seconds);
}

// S2T tile: 4 rows × 4 vectors = 16 accumulators of AVX-512's 32 registers.
constexpr int kS2tRows = 4, kS2tVecs = FMMFFT_SIMD_BYTES == 64 ? 4 : 2;

/// TI target rows from `trow` × NV W-byte vectors, kept in registers across the
/// nj = 3·M_L source rows from `srow`; row t reads table row `tab` + jj - t.
/// Per element: one multiply and one add per j ascending, as the scalar loop.
template <int W, int TI, int NV, typename T>
inline void s2t_tile(T* trow, const T* srow, const T* tab, index_t cp, index_t nj) {
  using V = simd::uvec<T, W>;
  constexpr index_t VL = index_t(sizeof(V) / sizeof(T));
  const auto vec = [](const T* p) { return *reinterpret_cast<const V*>(p); };
  V acc[TI][NV];
  for (int t = 0; t < TI; ++t)
    for (int v = 0; v < NV; ++v) acc[t][v] = vec(trow + cp * t + VL * v);
  for (index_t jj = 0; jj < nj; ++jj)
    for (int v = 0; v < NV; ++v) {
      const V s = vec(srow + cp * jj + VL * v);
      for (int t = 0; t < TI; ++t) acc[t][v] += vec(tab + cp * (jj - t) + VL * v) * s;
    }
  for (int t = 0; t < TI; ++t)
    for (int v = 0; v < NV; ++v) *reinterpret_cast<V*>(trow + cp * t + VL * v) = acc[t][v];
}

/// S2T of boxes [b_lo, b_hi) (`t0`: T of box 0, `s0`: S row j = -M_L of box
/// 0) over each NV-vector pc-chunk from pc0, chunks outermost so their table
/// slice stays cached; one-row tiles take the i-tail, narrower chunks the pc-tail.
template <int W, int NV, typename T>
void s2t_sweep(T* t0, const T* s0, const T* tab, index_t cp, index_t ml, index_t b_lo,
               index_t b_hi, index_t pc0) {
  for (const index_t w = NV * index_t(W / sizeof(T)); pc0 + w <= cp; pc0 += w)
    for (index_t b = b_lo; b < b_hi; ++b) {
      T* tb = t0 + cp * ml * b + pc0;
      const T *sb = s0 + cp * ml * b + pc0, *tr = tab + cp * (ml - 1) + pc0;
      index_t i = 0;
      for (; i + kS2tRows <= ml; i += kS2tRows)
        s2t_tile<W, kS2tRows, NV>(tb + cp * i, sb, tr - cp * i, cp, 3 * ml);
      for (; i < ml; ++i) s2t_tile<W, 1, NV>(tb + cp * i, sb, tr - cp * i, cp, 3 * ml);
    }
  if constexpr (NV > 1 || W > int(sizeof(T)))
    s2t_sweep<NV == 1 ? int(sizeof(T)) : W, 1>(t0, s0, tab, cp, ml, b_lo, b_hi, pc0);
}

// M2L tile: 4 rows × 4 boxes = 16 accumulators, plus 4 M vectors and one
// operator vector (11 registers at 4 × 2 on 16-register ISAs). Per-parity
// box counts are powers of two, so from 4 boxes up there is no box tail; a
// 4 × 6 tile measured no faster on fp64 (EXPERIMENTS.md).
constexpr int kM2lRows = 4, kM2lBoxes = FMMFFT_SIMD_BYTES == 64 ? 4 : 2;

/// TI target rows from row i × TB target boxes × one W-byte vector at pc, kept
/// in registers across `ns` separations (ascending) × Q source rows j
/// (ascending): per L element the additions run separation-major, j-minor,
/// as m2l_oracle's passes. `l[b]` is box b's L, `m[k][b]` its source M under
/// separation k, and `tab[k]` that separation's slab, whose every operator
/// vector serves the TB boxes.
template <int W, int TI, int TB, typename T>
inline void m2l_tile(T* const* l, const T* const (*m)[TB], const T* const* tab, int ns,
                     index_t cpm, index_t q, index_t i, index_t pc) {
  using V = simd::uvec<T, W>;
  const auto vec = [](const T* p) { return *reinterpret_cast<const V*>(p); };
  V acc[TI][TB];
  for (int t = 0; t < TI; ++t)
    for (int b = 0; b < TB; ++b) acc[t][b] = vec(l[b] + cpm * (i + t) + pc);
  for (int k = 0; k < ns; ++k)
    for (index_t j = 0; j < q; ++j) {
      V mv[TB];
      for (int b = 0; b < TB; ++b) mv[b] = vec(m[k][b] + cpm * j + pc);
      const T* op = tab[k] + cpm * (i + q * j) + pc;
      for (int t = 0; t < TI; ++t) {
        const V a = vec(op + cpm * t);
        for (int b = 0; b < TB; ++b) acc[t][b] += a * mv[b];
      }
    }
  for (int t = 0; t < TI; ++t)
    for (int b = 0; b < TB; ++b) *reinterpret_cast<V*>(l[b] + cpm * (i + t) + pc) = acc[t][b];
}

/// M2L of one box tile over every W-byte vector from pc and every row tile, then
/// the pc tail at the next narrower width (32 B, 16 B, scalar); one-row
/// tiles take the Q tail.
template <int W, int TB, typename T>
void m2l_boxes(T* const* l, const T* const (*m)[TB], const T* const* tab, int ns, index_t cpm,
               index_t q, index_t pc) {
  for (constexpr index_t VL = index_t(W / sizeof(T)); pc + VL <= cpm; pc += VL) {
    index_t i = 0;
    for (; i + kM2lRows <= q; i += kM2lRows)
      m2l_tile<W, kM2lRows, TB>(l, m, tab, ns, cpm, q, i, pc);
    for (; i < q; ++i) m2l_tile<W, 1, TB>(l, m, tab, ns, cpm, q, i, pc);
  }
  if constexpr (W > int(sizeof(T)))
    m2l_boxes<simd::step_down<T>(W), TB>(l, m, tab, ns, cpm, q, pc);
}

/// M2L into the TB boxes b0, b0 + step, … of `level`: box b's source under
/// the k-th of `ns` separations is src(k, b), tab[k] that separation's slab.
template <int TB, typename T, typename Src>
void m2l_box_tile(Engine<T>& e, int level, index_t b0, index_t step, const T* const* tab, int ns,
                  const Src& src) {
  T* l[TB];
  const T* m[kNumCousins][TB];
  for (int b = 0; b < TB; ++b) {
    l[b] = e.local_box(level, b0 + step * b);
    for (int k = 0; k < ns; ++k) m[k][b] = src(k, b0 + step * b);
  }
  m2l_boxes<simd::kVecBytes<T>, TB>(l, m, tab, ns, e.cpm(), e.params().q, 0);
}

/// M2L into the n boxes b0, b0 + step, …: full tiles of kM2lBoxes, then
/// one-box tiles for the box-count tail.
template <typename T, typename Src>
void m2l_box_run(Engine<T>& e, int level, index_t b0, index_t step, index_t n,
                 const T* const* tab, int ns, const Src& src) {
  for (; n >= kM2lBoxes; n -= kM2lBoxes, b0 += step * kM2lBoxes)
    m2l_box_tile<kM2lBoxes>(e, level, b0, step, tab, ns, src);
  for (; n > 0; --n, b0 += step) m2l_box_tile<1>(e, level, b0, step, tab, ns, src);
}

}  // namespace

template <typename T>
Engine<T>::Engine(const Params& prm, int components, index_t g, index_t rank)
    : prm_(prm), c_(components), g_(g), rank_(rank) {
  prm_.validate_distributed(g);
  FMMFFT_CHECK(components == 1 || components == 2);
  FMMFFT_CHECK(rank >= 0 && rank < g);

  cp_ = c_ * prm_.p;
  cpm_ = c_ * (prm_.p - 1);
  nb_leaf_ = prm_.leaves() / g_;

  s2m_op_ = cast_buffer<T>(s2m_matrix(prm_.q, prm_.ml));
  m2m_op_ = cast_buffer<T>(m2m_matrix(prm_.q));
  s2t_tab_ = cast_buffer<T>(s2t_table(prm_, c_));
  ones_q_ = Buffer<T>(prm_.q * prm_.boxes(prm_.b));
  ones_q_.fill(T(1));

  // Precompute the M2L operator slabs: the four cousin separations per
  // non-base level, and the base-level all-pairs slabs when 2^B is small
  // enough to cache (otherwise m2l_operator builds them per call).
  for (int lev = prm_.b + 1; lev <= prm_.l(); ++lev)
    for (index_t sep : level_separations())
      m2l_cache_.emplace(std::make_pair(lev, sep), cast_buffer<T>(m2l_table(prm_, lev, sep, c_)));
  const index_t base_boxes = prm_.boxes(prm_.b);
  if (base_boxes <= 32) {
    for (index_t sep = 2; sep <= base_boxes - 2; ++sep)
      m2l_cache_.emplace(std::make_pair(prm_.b, sep),
                         cast_buffer<T>(m2l_table(prm_, prm_.b, sep, c_)));
  }
  // Larger base levels build their slabs on first use into the keyed LRU
  // (m2l_operator), so repeated executes of one plan pay the build once.
  // Resolve operator slab pointers once, after the cache stops growing:
  // std::map nodes are pointer-stable, so these stay valid for the engine's
  // lifetime and the per-call path never touches the map.
  m2l_level_ops_.resize(static_cast<std::size_t>(prm_.l() - prm_.b));
  for (int lev = prm_.b + 1; lev <= prm_.l(); ++lev) {
    auto& ops = m2l_level_ops_[(std::size_t)(lev - prm_.b - 1)];
    const auto seps = level_separations();
    for (std::size_t k = 0; k < seps.size(); ++k)
      ops[k] = m2l_cache_.at({lev, seps[k]}).data();
  }

  s_ = Buffer<T>(cp_ * prm_.ml * (nb_leaf_ + 2));
  t_ = Buffer<T>(cp_ * prm_.ml * nb_leaf_);
  r_ = Buffer<T>(cpm_);

  const int l = prm_.l();
  mult_.resize(static_cast<std::size_t>(l - prm_.b + 1));
  local_.resize(static_cast<std::size_t>(l - prm_.b + 1));
  for (int lev = prm_.b; lev <= l; ++lev) {
    const index_t nbl = local_boxes(lev);
    if (lev == prm_.b)
      mult_[0] = Buffer<T>(cpm_ * prm_.q * prm_.boxes(prm_.b));  // global
    else
      mult_[(std::size_t)(lev - prm_.b)] = Buffer<T>(cpm_ * prm_.q * (nbl + 4));
    local_[(std::size_t)(lev - prm_.b)] = Buffer<T>(cpm_ * prm_.q * nbl);
  }
}

template <typename T>
void Engine<T>::record_stage(StageStats st, double seconds, double bytes_read,
                             double bytes_written) {
  st.seconds = seconds;
  st.bytes_read = bytes_read;
  st.bytes_written = bytes_written;
  count_stage(st, sizeof(T) == 4);
  std::lock_guard<std::mutex> lk(stats_mu_);
  stats_.push_back(std::move(st));
}

template <typename T>
T* Engine<T>::source_box(index_t b) {
  FMMFFT_ASSERT(b >= -1 && b <= nb_leaf_);
  return s_.data() + cp_ * prm_.ml * (b + 1);
}

template <typename T>
T* Engine<T>::target_box(index_t b) {
  FMMFFT_ASSERT(b >= 0 && b < nb_leaf_);
  return t_.data() + cp_ * prm_.ml * b;
}

template <typename T>
T* Engine<T>::multipole_box(int level, index_t b) {
  auto& buf = mult_[(std::size_t)(level - prm_.b)];
  if (level == prm_.b) {
    FMMFFT_ASSERT(b >= 0 && b < prm_.boxes(prm_.b));
    return buf.data() + expansion_box_elems() * b;  // global indexing
  }
  FMMFFT_ASSERT(b >= -2 && b < local_boxes(level) + 2);
  return buf.data() + expansion_box_elems() * (b + 2);
}

template <typename T>
T* Engine<T>::local_box(int level, index_t b) {
  FMMFFT_ASSERT(b >= 0 && b < local_boxes(level));
  return local_[(std::size_t)(level - prm_.b)].data() + expansion_box_elems() * b;
}

template <typename T>
void Engine<T>::zero() {
  t_.fill(T(0));
  for (auto& l : local_) l.fill(T(0));
}

template <typename T>
void Engine<T>::s2m() {
  FMMFFT_SPAN("S2M");
  WallTimer stage_timer_;
  // M^L_{(p-1)qb} = S2M_qm S_pmb, skipping the p=0 slice (row offset c_).
  const index_t q = prm_.q, ml = prm_.ml;
  // Leaf multipoles live in the interior of M^L, or directly in this
  // rank's slab of the global base buffer when L == B.
  T* dst = prm_.l() == prm_.b ? multipole_box(prm_.b, box_offset(prm_.b))
                              : multipole_box(prm_.l(), 0);
  blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::T, cpm_, q, ml, T(1),
                                source_box(0) + c_, cp_, cp_ * ml, s2m_op_.data(), q, 0, T(0),
                                dst, cpm_, cpm_ * q, nb_leaf_);
  record_stage({"S2M", KernelClass::BatchedGemm,
                2.0 * double(cpm_) * double(q) * double(ml) * double(nb_leaf_),
                double(sizeof(T)) * (double(cpm_ * ml * nb_leaf_) +
                                     double(cpm_ * q * nb_leaf_) + double(q * ml)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) * (double(cpm_ * ml * nb_leaf_) + double(q * ml)),
               double(sizeof(T)) * double(cpm_ * q * nb_leaf_));
}

template <typename T>
void Engine<T>::m2m(int level) {
  FMMFFT_SPAN("M2M");
  WallTimer stage_timer_;
  FMMFFT_CHECK(level >= prm_.b && level < prm_.l());
  const index_t q = prm_.q, nbl = local_boxes(level);
  T* dst = level == prm_.b ? multipole_box(prm_.b, box_offset(prm_.b)) : multipole_box(level, 0);
  blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::T, cpm_, q, 2 * q, T(1),
                                multipole_box(level + 1, 0), cpm_, 2 * cpm_ * q,
                                m2m_op_.data(), q, 0, T(0), dst, cpm_, cpm_ * q, nbl);
  record_stage({"M2M-" + std::to_string(level), KernelClass::BatchedGemm,
                4.0 * double(cpm_) * double(q) * double(q) * double(nbl),
                double(sizeof(T)) * (double(2 * cpm_ * q * nbl) +
                                     double(cpm_ * q * nbl) + double(2 * q * q)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) * (double(2 * cpm_ * q * nbl) + double(2 * q * q)),
               double(sizeof(T)) * double(cpm_ * q * nbl));
}

template <typename T>
void Engine<T>::s2t() {
  FMMFFT_SPAN("S2T");
  WallTimer stage_timer_;
  // T_pib += S2T_{p(j-i)} S_pjb over the three-box neighbourhood; the p=0
  // table slice is the identity, performing the C_0 = I copy in the same
  // sweep. Boxes are shared across the pool, each range swept by tiles.
  const index_t ml = prm_.ml;
  parallel_for(
      nb_leaf_,
      [&](index_t b_lo, index_t b_hi) {
        s2t_sweep<simd::kVecBytes<T>, kS2tVecs>(
            target_box(0), source_box(-1), s2t_tab_.data(), cp_, ml, b_lo, b_hi, 0);
      },
      /*grain=*/1);
  const double wr = double(sizeof(T)) * double(cp_ * ml * nb_leaf_);
  const double rd = double(sizeof(T)) * double(cp_ * ml * (nb_leaf_ + 2)) + wr;
  record_stage({"S2T", KernelClass::Custom,
                2.0 * 3.0 * double(ml) * double(ml) * double(cp_) * double(nb_leaf_), rd + wr, 1},
               stage_timer_.seconds(), rd, wr);
}

template <typename T>
const T* Engine<T>::m2l_operator(int level, index_t s) {
  auto it = m2l_cache_.find({level, s});
  if (it != m2l_cache_.end()) return it->second.data();
  // Keyed LRU for slabs too numerous to precompute. Slabs stay pinned while
  // they remain within capacity, so m2l_base resolves a capacity-sized
  // chunk of separations up front and sweeps them in one pool fork.
  const M2lKey key{level, s};
  auto pos = m2l_lru_pos_.find(key);
  if (pos != m2l_lru_pos_.end()) {
    m2l_lru_.splice(m2l_lru_.begin(), m2l_lru_, pos->second);
    return m2l_lru_.front().second.data();
  }
  FMMFFT_COUNT("fmm.m2l_slab_builds", 1);
  m2l_lru_.emplace_front(key, cast_buffer<T>(m2l_table(prm_, level, s, c_)));
  m2l_lru_pos_[key] = m2l_lru_.begin();
  if (m2l_lru_.size() > kM2lLruCapacity) {
    m2l_lru_pos_.erase(m2l_lru_.back().first);
    m2l_lru_.pop_back();
  }
  return m2l_lru_.front().second.data();
}

template <typename T>
void Engine<T>::m2l_level(int level) {
  FMMFFT_SPAN("M2L");
  WallTimer stage_timer_;
  FMMFFT_CHECK(level > prm_.b && level <= prm_.l());
  const index_t q = prm_.q, nbl = local_boxes(level), off = box_offset(level);
  const auto& ops = m2l_level_ops_[(std::size_t)(level - prm_.b - 1)];
  // Boxes of one parity share their three separations, which are adjacent
  // in level_separations order ({-3,-2,2} odd, {-2,2,3} even): each unit of
  // 2·kM2lBoxes consecutive boxes runs one box tile per parity. Tiles own
  // disjoint L elements, so the result is independent of the thread count.
  constexpr index_t unit = 2 * kM2lBoxes;
  parallel_for(
      ceil_div(nbl, unit),
      [&](index_t u_lo, index_t u_hi) {
        for (index_t u = u_lo; u < u_hi; ++u) {
          const index_t hi = std::min(unit * (u + 1), nbl);
          for (index_t b0 = unit * u; b0 < std::min(unit * u + 2, hi); ++b0) {
            const std::size_t first = (off + b0) % 2 != 0 ? 0 : 1;
            const index_t* seps = level_separations().data() + first;
            m2l_box_run(*this, level, b0, 2, (hi - b0 + 1) / 2, ops.data() + first,
                        kNumCousins,
                        [&](int k, index_t b) { return multipole_box(level, b + seps[k]); });
          }
        }
      },
      /*grain=*/1);
  // 3 cousins per box regardless of parity.
  // Mops: M^l read once (with halo) and L^l accumulated (read + write) —
  // the interaction-list reuse of the box-tiled kernel (§5.3 conventions).
  record_stage({"M2L-" + std::to_string(level), KernelClass::Custom,
                2.0 * 3.0 * double(q) * double(q) * double(cpm_) * double(nbl),
                double(sizeof(T)) * (2.0 * double(cpm_ * q * nbl) +
                                     double(cpm_ * q * (nbl + 4))),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) *
                   (double(cpm_ * q * nbl) + double(cpm_ * q * (nbl + 4))),
               double(sizeof(T)) * double(cpm_ * q * nbl));
}

template <typename T>
void Engine<T>::m2l_base() {
  FMMFFT_SPAN("M2L-B");
  WallTimer stage_timer_;
  const index_t q = prm_.q, nbl = local_boxes(prm_.b), off = box_offset(prm_.b);
  const index_t nb_global = prm_.boxes(prm_.b);
  // Separation-major, s in [2, 2^B-2] ascending: one operator slab streams
  // across every box tile before the next, so it stays cache-resident (a
  // tile fused over all 2^B-3 slabs would cycle them per box and thrash L2
  // at 2^B = 64). Slabs resolve a chunk at a time; a chunk no larger than
  // the LRU keeps every pointer pinned, so one pool fork serves it. Per L
  // element the additions run s-ascending, j-minor, as the oracle's passes.
  for (index_t s_lo = 2; s_lo <= nb_global - 2; s_lo += index_t(kM2lLruCapacity)) {
    const index_t s_hi = std::min(s_lo + index_t(kM2lLruCapacity), nb_global - 1);
    std::vector<const T*> ops;
    for (index_t s = s_lo; s < s_hi; ++s) ops.push_back(m2l_operator(prm_.b, s));
    parallel_for(
        ceil_div(nbl, kM2lBoxes),
        [&](index_t u_lo, index_t u_hi) {
          const index_t b0 = kM2lBoxes * u_lo, n = std::min(kM2lBoxes * u_hi, nbl) - b0;
          for (index_t s = s_lo; s < s_hi; ++s)
            m2l_box_run(*this, prm_.b, b0, 1, n, &ops[(std::size_t)(s - s_lo)], 1,
                        [&](int, index_t b) {
                          return multipole_box(prm_.b, mod(off + b + s, nb_global));
                        });
        },
        /*grain=*/1);
  }
  // Mops: the gathered global M^B streams once, L^B accumulates.
  const double nsrc = double(nb_global - 3);
  record_stage({"M2L-B", KernelClass::Custom,
                2.0 * nsrc * double(q) * double(q) * double(cpm_) * double(nbl),
                double(sizeof(T)) * (2.0 * double(cpm_ * q * nbl) +
                                     double(cpm_ * q * nb_global)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) *
                   (double(cpm_ * q * nbl) + double(cpm_ * q * nb_global)),
               double(sizeof(T)) * double(cpm_ * q * nbl));
}

template <typename T>
void Engine<T>::reduce() {
  FMMFFT_SPAN("REDUCE");
  WallTimer stage_timer_;
  // r_{p-1} = sum_{q,b} M^B_{(p-1)qb}: the S2M/M2M columns sum to one, so
  // base-level multipoles preserve the source sums (§4.8). One GEMV on the
  // *global* base buffer — identical on every rank after the allgather.
  const index_t cols = prm_.q * prm_.boxes(prm_.b);
  blas::gemv<T>(blas::Op::N, cpm_, cols, T(1), multipole_box(prm_.b, 0), cpm_, ones_q_.data(),
                1, T(0), r_.data(), 1);
  record_stage({"REDUCE", KernelClass::Gemv, 2.0 * double(cpm_) * double(cols),
                double(sizeof(T)) * (double(cpm_ * cols) + double(cpm_)), 1},
               stage_timer_.seconds(), double(sizeof(T)) * double(cpm_ * cols),
               double(sizeof(T)) * double(cpm_));
}

template <typename T>
void Engine<T>::l2l(int level) {
  FMMFFT_SPAN("L2L");
  WallTimer stage_timer_;
  FMMFFT_CHECK(level >= prm_.b && level < prm_.l());
  const index_t q = prm_.q, nbl = local_boxes(level);
  blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::N, cpm_, 2 * q, q, T(1),
                                local_box(level, 0), cpm_, cpm_ * q, m2m_op_.data(), q, 0, T(1),
                                local_box(level + 1, 0), cpm_, 2 * cpm_ * q, nbl);
  record_stage({"L2L-" + std::to_string(level), KernelClass::BatchedGemm,
                4.0 * double(cpm_) * double(q) * double(q) * double(nbl),
                double(sizeof(T)) * (double(cpm_ * q * nbl) + double(2 * q * q) +
                                     2.0 * double(2 * cpm_ * q * nbl)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) * (double(cpm_ * q * nbl) + double(2 * q * q) +
                                    double(2 * cpm_ * q * nbl)),
               double(sizeof(T)) * double(2 * cpm_ * q * nbl));
}

template <typename T>
void Engine<T>::l2t() {
  FMMFFT_SPAN("L2T");
  WallTimer stage_timer_;
  const index_t q = prm_.q, ml = prm_.ml;
  blas::gemm_strided_batched<T>(blas::Op::N, blas::Op::N, cpm_, ml, q, T(1),
                                local_box(prm_.l(), 0), cpm_, cpm_ * q, s2m_op_.data(), q, 0,
                                T(1), target_box(0) + c_, cp_, cp_ * ml, nb_leaf_);
  record_stage({"L2T", KernelClass::BatchedGemm,
                2.0 * double(cpm_) * double(ml) * double(q) * double(nb_leaf_),
                double(sizeof(T)) * (double(cpm_ * q * nb_leaf_) + double(q * ml) +
                                     2.0 * double(cpm_ * ml * nb_leaf_)),
                1},
               stage_timer_.seconds(),
               double(sizeof(T)) * (double(cpm_ * q * nb_leaf_) + double(q * ml) +
                                    double(cpm_ * ml * nb_leaf_)),
               double(sizeof(T)) * double(cpm_ * ml * nb_leaf_));
}

template <typename T>
void Engine<T>::fill_source_halo_cyclic() {
  FMMFFT_SPAN("HALO-S");
  WallTimer stage_timer_;
  const index_t be = source_box_elems();
  std::memcpy(source_box(-1), source_box(nb_leaf_ - 1), sizeof(T) * be);
  std::memcpy(source_box(nb_leaf_), source_box(0), sizeof(T) * be);
  record_stage({"COMM-S", KernelClass::Copy, 0.0, double(sizeof(T)) * 2 * be, 1},
               stage_timer_.seconds());
}

template <typename T>
void Engine<T>::fill_multipole_halo_cyclic(int level) {
  FMMFFT_SPAN("HALO-M");
  WallTimer stage_timer_;
  FMMFFT_CHECK(level > prm_.b && level <= prm_.l());
  const index_t nbl = local_boxes(level), ee = expansion_box_elems();
  std::memcpy(multipole_box(level, -2), multipole_box(level, nbl - 2), sizeof(T) * 2 * ee);
  std::memcpy(multipole_box(level, nbl), multipole_box(level, 0), sizeof(T) * 2 * ee);
  record_stage({"COMM-M" + std::to_string(level), KernelClass::Copy, 0.0,
                double(sizeof(T)) * 4 * ee, 1},
               stage_timer_.seconds());
}

template <typename T>
void Engine<T>::run_single_node() {
  FMMFFT_CHECK_MSG(g_ == 1, "run_single_node requires G == 1");
  zero();
  s2m();
  fill_source_halo_cyclic();
  s2t();
  for (int lev = prm_.l() - 1; lev >= prm_.b; --lev) m2m(lev);
  for (int lev = prm_.l(); lev > prm_.b; --lev) {
    fill_multipole_halo_cyclic(lev);
    m2l_level(lev);
  }
  m2l_base();
  reduce();
  for (int lev = prm_.b; lev < prm_.l(); ++lev) l2l(lev);
  l2t();
}

template class Engine<float>;
template class Engine<double>;

}  // namespace fmmfft::fmm
