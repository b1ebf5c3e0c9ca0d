#include "hfx/shell_pairs.hpp"

#include <algorithm>

#include "hfx/cell_list.hpp"
#include "ints/eri.hpp"
#include "ints/schwarz.hpp"

namespace mthfx::hfx {

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

ShellPairList ShellPairList::culled(
    const chem::BasisSet& basis, double eps, PairCullStats* stats,
    std::vector<std::optional<ints::ShellPairHermite>>* expansions) {
  const std::size_t ns = basis.num_shells();
  ShellPairList list;
  list.unscreened_ = ns * (ns + 1) / 2;
  if (ns == 0) return list;

  const CellList cells(basis, shell_extent_radii(basis));
  PairCullStats st;

  // Pass 1: Schwarz bounds on cell-list candidates only, one batched
  // kernel call per row; the row's expansions live until the next row
  // unless they belong to a pair kept for certain that the caller wants.
  // Pairs outside candidate range are below every resolvable scale by
  // construction and are never touched.
  std::vector<ShellPair> computed;
  std::vector<std::optional<ints::ShellPairHermite>> held;  // by computed
  std::vector<std::uint32_t> cand;
  std::vector<ints::ShellPairHermite> row;
  std::vector<double> q;
  double qmax = 0.0;
  for (std::size_t sa = 0; sa < ns; ++sa) {
    cand.clear();
    cells.candidates(sa, &cand);
    row.clear();
    for (const std::uint32_t sb : cand)
      row.emplace_back(basis.shell(sa), basis.shell(sb));
    q.resize(row.size());
    st.floored += ints::schwarz_bounds(row, q.data());
    for (std::size_t i = 0; i < cand.size(); ++i) {
      computed.push_back({static_cast<std::uint32_t>(sa), cand[i], q[i]});
      qmax = std::max(qmax, q[i]);
    }
    if (expansions) {
      held.resize(computed.size());
      const std::size_t first = computed.size() - cand.size();
      for (std::size_t i = 0; i < cand.size(); ++i)
        if (q[i] * qmax >= eps) held[first + i] = std::move(row[i]);
    }
    st.candidates += cand.size();
  }
  list.max_q_ = qmax;

  // Pass 2: the eps rule against the largest bound.
  std::vector<std::uint32_t> kept;
  for (std::size_t i = 0; i < computed.size(); ++i)
    if (computed[i].q * qmax >= eps)
      kept.push_back(static_cast<std::uint32_t>(i));
  // Sorting by descending bound keeps the heaviest bra pairs early: the
  // dynamic bag hands them out first, which shortens the critical path.
  std::sort(kept.begin(), kept.end(), [&](std::uint32_t x, std::uint32_t y) {
    return computed[x].q > computed[y].q;
  });
  list.pairs_.reserve(kept.size());
  for (const std::uint32_t i : kept) list.pairs_.push_back(computed[i]);
  if (expansions) {
    expansions->clear();
    for (const std::uint32_t i : kept)
      expansions->push_back(std::move(held[i]));
  }
  if (stats) *stats = st;
  return list;
}

}  // namespace mthfx::hfx
