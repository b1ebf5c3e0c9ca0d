#pragma once

// Becke molecular integration grid (Becke, JCP 88, 2547 (1988)):
// atom-centered radial x Lebedev-angular product grids stitched together
// with fuzzy Voronoi weights (3 iterations of the smoothing polynomial,
// Bragg–Slater size adjustment).

#include <cstddef>
#include <vector>

#include "chem/molecule.hpp"

namespace mthfx::dft {

struct GridPoint {
  chem::Vec3 pos;      ///< Bohr
  double weight = 0.0; ///< full quadrature weight (radial x angular x Becke)
  std::size_t parent = 0;  ///< atom whose radial shell spawned this point
  double becke = 0.0;      ///< Becke partition weight P_parent at pos
};

struct GridOptions {
  int radial_points = 40;
  int angular_points = 38;  ///< a supported Lebedev count (or next larger)
  double radial_scale = 1.0;

  friend bool operator==(const GridOptions&, const GridOptions&) = default;
};

class MolecularGrid {
 public:
  MolecularGrid(const chem::Molecule& mol, const GridOptions& options = {});

  const std::vector<GridPoint>& points() const { return points_; }
  std::size_t size() const { return points_.size(); }

  /// Integrate a scalar field sampled by `f` over R^3.
  template <typename F>
  double integrate(F&& f) const {
    double s = 0.0;
    for (const GridPoint& p : points_) s += p.weight * f(p.pos);
    return s;
  }

 private:
  std::vector<GridPoint> points_;
};

/// Becke cell weight of atom `center` at point `p` (exposed for tests).
double becke_weight(const chem::Molecule& mol, std::size_t center,
                    const chem::Vec3& p);

/// Analytic derivative of the Becke partition weight: entry B of the
/// returned vector is dP_center/dR_B at *fixed* point p (the point is not
/// dragged along with any atom; the grid-point motion term is recovered
/// from translational invariance by the XC gradient). Matches
/// becke_weight including the smoothing iterations and the Bragg-radius
/// size adjustment.
std::vector<chem::Vec3> becke_weight_gradient(const chem::Molecule& mol,
                                              std::size_t center,
                                              const chem::Vec3& p);

}  // namespace mthfx::dft
