#include "ints/schwarz.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ints/eri_batch.hpp"

namespace mthfx::ints {

std::size_t schwarz_bounds(std::span<const ShellPairHermite> pairs,
                           double* q) {
  thread_local std::vector<QuartetRef> stream;
  thread_local std::vector<EriBlock> blocks;
  stream.clear();
  for (const ShellPairHermite& pair : pairs) stream.push_back({&pair, &pair});
  if (blocks.size() < stream.size()) blocks.resize(stream.size());
  eri_shell_quartet_batched({stream.data(), stream.size()}, blocks.data());

  std::size_t floored = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const EriBlock& block = blocks[p];
    double mx = 0.0;
    for (std::size_t i = 0; i < block.na; ++i)
      for (std::size_t j = 0; j < block.nb; ++j)
        mx = std::max(mx, std::abs(block(i, j, i, j)));
    // Floor sub-noise diagonals at the kernel's truncation scale: for a
    // distant pair the computed (ab|ab) underflows to exactly 0 through
    // the primitive cutoff while cross integrals against the pair still
    // compute at ~1e-16, so a bare sqrt would (a) violate the Schwarz
    // inequality for computed integrals and (b) drop the pair at *any*
    // eps — eps -> 0 would never recover the unscreened result. Each of
    // the (nprim_a*nprim_b)^2 primitive combinations of (ab|ab) may
    // have been truncated by up to the cutoff; only diagonals below
    // that noise scale are floored, so healthy pairs keep the exact
    // sqrt(max (ab|ab)) bound.
    const double npp = static_cast<double>(pairs[p].num_primitive_pairs());
    const double noise = npp * npp * kEriPrimitiveCutoff;
    if (mx < noise) ++floored;
    q[p] = mx < noise ? std::sqrt(mx + noise) : std::sqrt(mx);
  }
  return floored;
}

linalg::Matrix schwarz_bounds(const chem::BasisSet& basis) {
  const std::size_t ns = basis.num_shells();
  linalg::Matrix q(ns, ns);
  std::vector<ShellPairHermite> row;
  std::vector<double> bounds;
  for (std::size_t sa = 0; sa < ns; ++sa) {
    row.clear();
    for (std::size_t sb = 0; sb <= sa; ++sb)
      row.emplace_back(basis.shell(sa), basis.shell(sb));
    bounds.resize(row.size());
    schwarz_bounds(row, bounds.data());
    for (std::size_t sb = 0; sb <= sa; ++sb) {
      q(sa, sb) = bounds[sb];
      q(sb, sa) = bounds[sb];
    }
  }
  return q;
}

}  // namespace mthfx::ints
