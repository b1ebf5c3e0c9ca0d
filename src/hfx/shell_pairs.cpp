#include "hfx/shell_pairs.hpp"

#include <algorithm>

#include "hfx/cell_list.hpp"

namespace mthfx::hfx {

ShellPairList::ShellPairList(const chem::BasisSet& basis,
                             const linalg::Matrix& schwarz, double eps) {
  const std::size_t ns = basis.num_shells();
  unscreened_ = ns * (ns + 1) / 2;

  double qmax = 0.0;
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb)
      qmax = std::max(qmax, schwarz(sa, sb));
  max_q_ = qmax;

  const std::vector<double> radii = shell_extent_radii(basis);
  for (std::size_t sa = 0; sa < ns; ++sa) {
    for (std::size_t sb = 0; sb <= sa; ++sb) {
      const double q = schwarz(sa, sb);
      if (q * qmax < eps) continue;
      // Beyond summed extent radii the Gaussian-product factor is at
      // least e^{-kExtentLogSlack} below every scale the kernel can
      // resolve, for ANY partner pair — the stored bound is pure noise
      // floor that clears the eps rule on noise alone. Dropping exactly
      // this class keeps the dense sweep pair-for-pair identical to the
      // distance-culled build below, which never enumerates it. A pair
      // that is *in range* but Schwarz-floored stays subject to the
      // plain eps rule: its true diagonal is below the floored value
      // (keeping it is conservative), and its cross quartets (ab|cd)
      // with a strong partner are real at the sqrt(noise)·qmax scale
      // that tight-eps builds must resolve.
      if (!within_extent_range(basis, radii, sa, sb)) continue;
      pairs_.push_back({static_cast<std::uint32_t>(sa),
                        static_cast<std::uint32_t>(sb), q});
    }
  }
  // Sorting by descending bound keeps the heaviest bra pairs early: the
  // dynamic bag hands them out first, which shortens the critical path.
  std::sort(pairs_.begin(), pairs_.end(),
            [](const ShellPair& x, const ShellPair& y) { return x.q > y.q; });
}

std::size_t ShellPairList::live_end(std::size_t b, double eps) const {
  if (eps <= 0.0) return b + 1;
  const double qb = pairs_[b].q;
  std::size_t lo = 0, hi = b + 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (qb * pairs_[mid].q >= eps)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

ShellPairList ShellPairList::culled(const chem::BasisSet& basis, double eps,
                                    PairCullStats* stats) {
  const std::size_t ns = basis.num_shells();
  ShellPairList list;
  list.unscreened_ = ns * (ns + 1) / 2;
  if (ns == 0) return list;

  const CellList cells(basis, shell_extent_radii(basis));
  PairCullStats st;

  // Pass 1: exact Schwarz bounds on cell-list candidates only. Pairs
  // outside candidate range are below every resolvable scale by
  // construction and are never touched; in-range candidates — including
  // Schwarz-floored ones, whose cross quartets with strong partners are
  // real — go through the same eps rule as the dense sweep.
  std::vector<ShellPair> computed;
  std::vector<std::uint32_t> cand;
  double qmax = 0.0;
  for (std::size_t sa = 0; sa < ns; ++sa) {
    cand.clear();
    cells.candidates(sa, &cand);
    for (const std::uint32_t sb : cand) {
      bool floored = false;
      // Low-index shell first, matching ints::schwarz_bounds — the
      // kernel is symmetric analytically but not bit-for-bit under
      // operand swap, and the culled list must reproduce the dense
      // table exactly.
      const double q =
          ints::schwarz_bound(basis.shell(std::min<std::size_t>(sa, sb)),
                              basis.shell(std::max<std::size_t>(sa, sb)),
                              &floored);
      computed.push_back(
          {static_cast<std::uint32_t>(sa), sb, q});
      if (floored) ++st.floored;
      qmax = std::max(qmax, q);
    }
    st.candidates += cand.size();
  }
  list.max_q_ = qmax;

  // Pass 2: same eps rule as the dense build.
  for (std::size_t i = 0; i < computed.size(); ++i) {
    if (computed[i].q * qmax < eps) continue;
    list.pairs_.push_back(computed[i]);
  }
  std::sort(list.pairs_.begin(), list.pairs_.end(),
            [](const ShellPair& x, const ShellPair& y) { return x.q > y.q; });
  if (stats) *stats = st;
  return list;
}

}  // namespace mthfx::hfx
