#include "nufft/nufmm.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/math.hpp"
#include "fmm/chebyshev.hpp"
#include "fmm/operators.hpp"

namespace fmmfft::nufft {

template <typename T>
struct NonuniformFmm<T>::Impl {
  using Cx = std::complex<T>;

  index_t n;    // uniform sources
  int q;
  index_t ml;   // sources per leaf
  int b, l;     // base and leaf levels
  double w_leaf;

  std::vector<T> x;                    // target positions, original order
  std::vector<index_t> perm;           // sorted-by-box -> original index
  std::vector<index_t> box_start;      // leaf box -> first sorted target
  std::vector<index_t> hit_src;        // original target -> source index or -1
  std::vector<std::pair<index_t, index_t>> hits;

  std::vector<double> s2m_op;          // Q × M_L (sources at left-edge grid)
  std::vector<double> m2m_op;          // Q × 2Q
  std::map<std::pair<int, index_t>, std::vector<double>> m2l_op;  // (level, s)

  Impl(index_t n_, std::vector<T> targets, int q_, index_t ml_, int b_)
      : n(n_), q(q_), ml(ml_), b(b_), x(std::move(targets)) {
    FMMFFT_CHECK_MSG(n >= 4 && is_pow2(n), "source count must be a power of two >= 4");
    FMMFFT_CHECK_MSG(ml >= 1 && is_pow2(ml) && n % ml == 0, "invalid M_L");
    l = ilog2_exact(n / ml);
    FMMFFT_CHECK_MSG(b >= 2 && b <= l, "need 2 <= B <= L, got B=" << b << " L=" << l);
    FMMFFT_CHECK(q >= 1);
    w_leaf = 2.0 * pi_v<double> / double(index_t(1) << l);

    // Sort targets into leaf boxes (counting sort over boxes).
    const index_t nb = index_t(1) << l;
    std::vector<index_t> box_of(x.size());
    std::vector<index_t> count(static_cast<std::size_t>(nb) + 1, 0);
    for (std::size_t j = 0; j < x.size(); ++j) {
      FMMFFT_CHECK_MSG(x[j] >= T(0) && x[j] < T(2.0 * pi_v<double>),
                       "targets must lie in [0, 2*pi)");
      index_t bb = std::min<index_t>(nb - 1, index_t(double(x[j]) / w_leaf));
      box_of[j] = bb;
      ++count[(std::size_t)bb + 1];
    }
    for (index_t i = 0; i < nb; ++i) count[(std::size_t)i + 1] += count[(std::size_t)i];
    box_start.assign(count.begin(), count.end());
    perm.resize(x.size());
    {
      auto cursor = count;
      for (std::size_t j = 0; j < x.size(); ++j)
        perm[(std::size_t)cursor[(std::size_t)box_of[j]]++] = (index_t)j;
    }

    // Source-coincident targets.
    hit_src.assign(x.size(), -1);
    for (std::size_t j = 0; j < x.size(); ++j) {
      const double m_guess = std::round(double(x[j]) * n / (2.0 * pi_v<double>));
      const index_t m = mod(index_t(m_guess), n);
      const double tm = 2.0 * pi_v<double> * double(m) / double(n);
      if (std::abs(double(x[j]) - tm) < 1e-14) {
        hit_src[j] = m;
        hits.emplace_back((index_t)j, m);
      }
    }

    // Operators. Sources sit at the left-edge grid of each leaf:
    // local param of source i is -1 + 2 i / M_L.
    {
      std::vector<double> pts(static_cast<std::size_t>(ml));
      for (index_t i = 0; i < ml; ++i) pts[(std::size_t)i] = -1.0 + 2.0 * double(i) / double(ml);
      s2m_op = fmm::lagrange_matrix(q, pts.data(), ml);
    }
    m2m_op = fmm::m2m_matrix(q);
    // M2L: K(x, y) = cot((x - y)/2) with x = ct + w z_i/2, y = cs + w z_j/2,
    // cs - ct = s·w  =>  arg = (w/2)(z_i/2 - z_j/2 - s).
    const auto z = fmm::chebyshev_points(q);
    auto build = [&](int lev, index_t s) {
      const double w = 2.0 * pi_v<double> / double(index_t(1) << lev);
      std::vector<double> tab(static_cast<std::size_t>(q) * q);
      for (int j = 0; j < q; ++j)
        for (int i = 0; i < q; ++i)
          tab[(std::size_t)(i + q * j)] =
              cot(w / 2.0 * (z[(std::size_t)i] / 2.0 - z[(std::size_t)j] / 2.0 - double(s)));
      return tab;
    };
    for (int lev = b + 1; lev <= l; ++lev)
      for (index_t s : fmm::level_separations()) m2l_op[{lev, s}] = build(lev, s);
    for (index_t s = 2; s <= (index_t(1) << b) - 2; ++s) m2l_op[{b, s}] = build(b, s);
  }

  /// The uniform tree between the leaf multipoles and the leaf locals:
  /// allocate the expansions, let `s2m` fill the leaf multipoles, then M2M
  /// up to the base, M2L (cousins at levels l..b+1, all non-neighbours at
  /// the base) with the tables scaled by `m2l_sign`, and L2L down to the
  /// leaves. Returns the leaf locals, q coefficients per box.
  template <typename S2M>
  std::vector<Cx> tree_pass(S2M&& s2m, T m2l_sign) const {
    std::vector<std::vector<Cx>> mult((std::size_t)l + 1), loc((std::size_t)l + 1);
    for (int lev = b; lev <= l; ++lev) {
      mult[(std::size_t)lev].assign((std::size_t)(q * (index_t(1) << lev)), Cx(0));
      loc[(std::size_t)lev].assign((std::size_t)(q * (index_t(1) << lev)), Cx(0));
    }
    s2m(mult[(std::size_t)l].data());
    // M2M up to the base.
    for (int lev = l - 1; lev >= b; --lev) {
      const index_t nbl = index_t(1) << lev;
      for (index_t bb = 0; bb < nbl; ++bb) {
        Cx* dst = mult[(std::size_t)lev].data() + q * bb;
        for (int child = 0; child < 2; ++child) {
          const Cx* src = mult[(std::size_t)(lev + 1)].data() + q * (2 * bb + child);
          const double* op = m2m_op.data() + (std::size_t)(child * q) * q;
          for (int k = 0; k < q; ++k)
            for (int qq = 0; qq < q; ++qq) dst[qq] += T(op[qq + k * q]) * src[k];
        }
      }
    }
    // M2L. Negating a table entry is exact, so the transpose's negated
    // tables round exactly as subtracting the forward products would.
    auto m2l = [&](const std::vector<double>& tab, const Cx* src, Cx* dst) {
      for (int j = 0; j < q; ++j)
        for (int i = 0; i < q; ++i) dst[i] += m2l_sign * T(tab[(std::size_t)(i + q * j)]) * src[j];
    };
    for (int lev = l; lev > b; --lev) {
      const index_t nbl = index_t(1) << lev;
      for (index_t bb = 0; bb < nbl; ++bb) {
        const index_t* seps = fmm::cousin_separations(bb % 2 != 0);
        for (int si = 0; si < fmm::kNumCousins; ++si)
          m2l(m2l_op.at({lev, seps[si]}),
              mult[(std::size_t)lev].data() + q * mod(bb + seps[si], nbl),
              loc[(std::size_t)lev].data() + q * bb);
      }
    }
    {
      const index_t nbl = index_t(1) << b;
      for (index_t bb = 0; bb < nbl; ++bb)
        for (index_t s = 2; s <= nbl - 2; ++s)
          m2l(m2l_op.at({b, s}), mult[(std::size_t)b].data() + q * mod(bb + s, nbl),
              loc[(std::size_t)b].data() + q * bb);
    }
    // L2L down to the leaves: M2M^T acting on the parent coefficients.
    for (int lev = b; lev < l; ++lev) {
      const index_t nbl = index_t(1) << lev;
      for (index_t bb = 0; bb < nbl; ++bb) {
        const Cx* src = loc[(std::size_t)lev].data() + q * bb;
        for (int child = 0; child < 2; ++child) {
          Cx* dst = loc[(std::size_t)(lev + 1)].data() + q * (2 * bb + child);
          const double* op = m2m_op.data() + (std::size_t)(child * q) * q;
          for (int k = 0; k < q; ++k)
            for (int qq = 0; qq < q; ++qq) dst[qq] += T(op[k + qq * q]) * src[k];
        }
      }
    }
    return std::move(loc[(std::size_t)l]);
  }

  void apply(const Cx* charges, Cx* out) const {
    const index_t nb_leaf = index_t(1) << l;
    // S2M at the leaves.
    const std::vector<Cx> leaf_loc = tree_pass(
        [&](Cx* mult) {
          for (index_t bb = 0; bb < nb_leaf; ++bb) {
            Cx* m = mult + q * bb;
            const Cx* ch = charges + bb * ml;
            for (index_t i = 0; i < ml; ++i) {
              const double* col = s2m_op.data() + i * q;
              for (int qq = 0; qq < q; ++qq) m[qq] += T(col[qq]) * ch[i];
            }
          }
        },
        T(1));

    // L2T + near field, per sorted target.
    std::vector<double> lag(static_cast<std::size_t>(q));
    for (index_t bb = 0; bb < nb_leaf; ++bb) {
      const Cx* lcoef = leaf_loc.data() + q * bb;
      for (index_t si = box_start[(std::size_t)bb]; si < box_start[(std::size_t)bb + 1]; ++si) {
        const index_t j = perm[(std::size_t)si];
        const double xj = double(x[(std::size_t)j]);
        // Far field: evaluate the local expansion at the target's param.
        const double zt = 2.0 * (xj - double(bb) * w_leaf) / w_leaf - 1.0;
        fmm::lagrange_eval(q, std::clamp(zt, -1.0, 1.0), lag.data());
        Cx acc(0);
        for (int qq = 0; qq < q; ++qq) acc += T(lag[(std::size_t)qq]) * lcoef[qq];
        // Near field: direct cotangent sums over the three neighbour boxes.
        for (index_t db = -1; db <= 1; ++db) {
          const index_t sb = mod(bb + db, nb_leaf);
          for (index_t i = 0; i < ml; ++i) {
            const index_t m = sb * ml + i;
            if (hit_src[(std::size_t)j] == m) continue;
            // Use the unwrapped position of the neighbour box so the
            // argument stays near zero (cot is 2π-periodic anyway).
            const double tm = (double(bb + db) * ml + double(i)) * 2.0 * pi_v<double> / double(n);
            acc += T(cot((xj - tm) / 2.0)) * charges[m];
          }
        }
        out[j] = acc;
      }
    }
  }

  void apply_transpose(const Cx* charges, Cx* out) const {
    // The transpose swaps source and target roles. With the kernel written
    // as cot((target - source)/2) this is the same tree algorithm with
    //   S2M  <- gather from the nonuniform points (Lagrange at z_j),
    //   M2L  <- the forward tables negated (antisymmetric kernel),
    //   L2T  <- evaluation at the uniform grid (the forward S2M matrix),
    // and M2M/L2L unchanged (basis translations are kernel-independent).
    const index_t nb_leaf = index_t(1) << l;
    // S2M from the nonuniform points.
    std::vector<double> lag(static_cast<std::size_t>(q));
    const std::vector<Cx> leaf_loc = tree_pass(
        [&](Cx* mult) {
          for (index_t bb = 0; bb < nb_leaf; ++bb) {
            Cx* m = mult + q * bb;
            for (index_t si = box_start[(std::size_t)bb]; si < box_start[(std::size_t)bb + 1];
                 ++si) {
              const index_t j = perm[(std::size_t)si];
              const double zj =
                  2.0 * (double(x[(std::size_t)j]) - double(bb) * w_leaf) / w_leaf - 1.0;
              fmm::lagrange_eval(q, std::clamp(zj, -1.0, 1.0), lag.data());
              for (int qq = 0; qq < q; ++qq) m[qq] += T(lag[(std::size_t)qq]) * charges[j];
            }
          }
        },
        T(-1));
    // L2T at the uniform grid + direct near field.
    for (index_t bb = 0; bb < nb_leaf; ++bb) {
      const Cx* lcoef = leaf_loc.data() + q * bb;
      for (index_t i = 0; i < ml; ++i) {
        const index_t m = bb * ml + i;
        Cx acc(0);
        const double* col = s2m_op.data() + i * q;
        for (int qq = 0; qq < q; ++qq) acc += T(col[qq]) * lcoef[qq];
        // Near field: nonuniform charges in the three neighbour boxes.
        const double tm_unwrapped = double(m) * 2.0 * pi_v<double> / double(n);
        for (index_t db = -1; db <= 1; ++db) {
          const index_t sb = mod(bb + db, nb_leaf);
          // Unwrap the neighbour box so arguments stay near zero.
          const double shift = (double(bb + db) - double(sb)) * w_leaf;
          for (index_t si = box_start[(std::size_t)sb]; si < box_start[(std::size_t)sb + 1];
               ++si) {
            const index_t j = perm[(std::size_t)si];
            if (hit_src[(std::size_t)j] == m) continue;
            const double xj = double(x[(std::size_t)j]) + shift;
            acc += T(cot((xj - tm_unwrapped) / 2.0)) * charges[j];
          }
        }
        out[m] = acc;
      }
    }
  }

  void apply_transpose_direct(const Cx* charges, Cx* out) const {
    for (index_t m = 0; m < n; ++m) {
      Cx acc(0);
      const double tm = 2.0 * pi_v<double> * double(m) / double(n);
      for (std::size_t j = 0; j < x.size(); ++j) {
        if (hit_src[j] == m) continue;
        acc += T(cot((double(x[j]) - tm) / 2.0)) * charges[j];
      }
      out[m] = acc;
    }
  }

  void apply_direct(const Cx* charges, Cx* out) const {
    for (std::size_t j = 0; j < x.size(); ++j) {
      Cx acc(0);
      for (index_t m = 0; m < n; ++m) {
        if (hit_src[j] == m) continue;
        const double tm = 2.0 * pi_v<double> * double(m) / double(n);
        acc += T(cot((double(x[j]) - tm) / 2.0)) * charges[m];
      }
      out[j] = acc;
    }
  }
};

template <typename T>
NonuniformFmm<T>::NonuniformFmm(index_t n, std::vector<T> targets, int q, index_t ml, int b)
    : impl_(std::make_unique<Impl>(n, std::move(targets), q, ml, b)) {}
template <typename T>
NonuniformFmm<T>::~NonuniformFmm() = default;
template <typename T>
NonuniformFmm<T>::NonuniformFmm(NonuniformFmm&&) noexcept = default;
template <typename T>
NonuniformFmm<T>& NonuniformFmm<T>::operator=(NonuniformFmm&&) noexcept = default;

template <typename T>
index_t NonuniformFmm<T>::num_sources() const {
  return impl_->n;
}
template <typename T>
index_t NonuniformFmm<T>::num_targets() const {
  return static_cast<index_t>(impl_->x.size());
}
template <typename T>
const std::vector<std::pair<index_t, index_t>>& NonuniformFmm<T>::exact_hits() const {
  return impl_->hits;
}
template <typename T>
void NonuniformFmm<T>::apply(const std::complex<T>* charges, std::complex<T>* out) const {
  impl_->apply(charges, out);
}
template <typename T>
void NonuniformFmm<T>::apply_transpose(const std::complex<T>* charges,
                                       std::complex<T>* out) const {
  impl_->apply_transpose(charges, out);
}
template <typename T>
void NonuniformFmm<T>::apply_direct(const std::complex<T>* charges, std::complex<T>* out) const {
  impl_->apply_direct(charges, out);
}
template <typename T>
void NonuniformFmm<T>::apply_transpose_direct(const std::complex<T>* charges,
                                              std::complex<T>* out) const {
  impl_->apply_transpose_direct(charges, out);
}

template class NonuniformFmm<float>;
template class NonuniformFmm<double>;

}  // namespace fmmfft::nufft
