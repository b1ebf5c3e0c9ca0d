#pragma once

// Brute-force oracle for hfx::ShellPairList::culled: every shell pair's
// Schwarz bound (ints::schwarz_bounds over the whole basis), then the
// extent rule (hfx::within_extent_range), then the eps rule against the
// largest in-range bound. Returns the kept pairs in (sa, sb) order, so
// tests compare it with by_index() of a culled list. The cell list never
// enters: a pair it failed to propose shows up as a missing pair.

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "chem/basis.hpp"
#include "hfx/cell_list.hpp"
#include "hfx/shell_pairs.hpp"
#include "ints/schwarz.hpp"

namespace mthfx::testsupport {

struct PairSweep {
  std::vector<hfx::ShellPair> pairs;  ///< kept pairs, ascending (sa, sb)
  double max_q = 0.0;                 ///< largest in-range bound
};

inline PairSweep brute_force_pairs(const chem::BasisSet& basis, double eps) {
  const std::size_t ns = basis.num_shells();
  const linalg::Matrix q = ints::schwarz_bounds(basis);
  const std::vector<double> radii = hfx::shell_extent_radii(basis);
  std::vector<hfx::ShellPair> in_range;
  PairSweep out;
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb) {
      if (!hfx::within_extent_range(basis, radii, sa, sb)) continue;
      in_range.push_back({static_cast<std::uint32_t>(sa),
                          static_cast<std::uint32_t>(sb), q(sa, sb)});
      out.max_q = std::max(out.max_q, q(sa, sb));
    }
  for (const hfx::ShellPair& p : in_range)
    if (p.q * out.max_q >= eps) out.pairs.push_back(p);
  return out;
}

inline std::vector<hfx::ShellPair> by_index(std::vector<hfx::ShellPair> v) {
  std::sort(v.begin(), v.end(),
            [](const hfx::ShellPair& a, const hfx::ShellPair& b) {
              return std::tuple(a.sa, a.sb) < std::tuple(b.sa, b.sb);
            });
  return v;
}

}  // namespace mthfx::testsupport
