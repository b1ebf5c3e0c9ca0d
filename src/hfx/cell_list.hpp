#pragma once

// Spatial cell-list for distance-culled shell-pair formation.
//
// A sweep over all ns(ns+1)/2 shell pairs, computing an exact Schwarz
// diagonal for each, is O(ns²) work dominated, in a large
// electrolyte box, by pairs so far apart that every primitive
// combination of (ab|ab) underflows the kernel's primitive cutoff
// (ints::kEriPrimitiveCutoff) and the bound collapses to the noise
// floor. The cell list bins shell centers on a uniform grid and
// enumerates only candidate pairs within the sum of the two shells'
// extent radii, so pair-list build touches O(ns · neighbors) pairs.
//
// Extent radii are conservative by construction: r_s = sqrt(L_s / (2
// α_min)) with a log-slack L_s far beyond the primitive cutoff, so the
// pairwise Gaussian-product factor exp(-2 μ R²) of any pair *outside*
// candidate range is at least e^{-min(L_a, L_b)} below every scale the
// kernel can resolve (see shell_extent_radii). Candidates then get the
// exact Schwarz bound; the only pairs culled without evaluation are ones
// the kernel would have floored anyway. The property suite
// (tests/test_property_scaling.cpp) checks this against a brute-force
// sweep over every shell pair across random geometries and basis sets.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"

namespace mthfx::hfx {

/// Log-slack used by shell_extent_radii; exposed for the property tests.
inline constexpr double kExtentLogSlack = 64.0;

/// Conservative interaction radius per shell. Derived so that for any
/// two shells a, b with |R_ab| > r_a + r_b, the minimum Gaussian-product
/// exponent μ = α_a α_b/(α_a + α_b) satisfies 2 μ R² ≥ min(L_a, L_b),
/// where L_s = kExtentLogSlack + 4·l_s. With the default slack of 64
/// (e^{-64} ≈ 1.6e-28) this leaves ten orders of magnitude of headroom
/// under the 1e-18 primitive cutoff for contraction/prefactor growth.
std::vector<double> shell_extent_radii(const chem::BasisSet& basis);

/// Exact test `|center(s) - center(t)| <= radii[s] + radii[t]`: the
/// range rule of CellList::candidates. Public so a brute-force sweep over
/// every pair (the tests' oracle) applies the very same arithmetic.
bool within_extent_range(const chem::BasisSet& basis,
                         const std::vector<double>& radii, std::size_t s,
                         std::size_t t);

/// Uniform-grid spatial index over shell centers with per-shell reach.
class CellList {
 public:
  /// `radii[s]` is shell s's interaction radius (extent); binning uses a
  /// cell edge of max(radii) so neighbor queries touch ≤ 3³ cell layers
  /// per unit of reach.
  CellList(const chem::BasisSet& basis, std::vector<double> radii);

  /// Append to `out` every shell t ≤ s (canonical pair order, s itself
  /// included) with |center(t) - center(s)| ≤ radii[s] + radii[t].
  void candidates(std::size_t s, std::vector<std::uint32_t>* out) const;

  const std::vector<double>& radii() const { return radii_; }
  std::size_t num_cells() const { return cells_.size(); }

 private:
  const chem::BasisSet* basis_;
  std::vector<double> radii_;
  double cell_size_ = 1.0;
  double max_radius_ = 0.0;
  double ox_ = 0.0, oy_ = 0.0, oz_ = 0.0;  ///< grid origin
  std::size_t nx_ = 1, ny_ = 1, nz_ = 1;
  std::vector<std::vector<std::uint32_t>> cells_;  ///< shell ids per cell
};

}  // namespace mthfx::hfx
