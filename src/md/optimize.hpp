#pragma once

// Geometry optimization on a PotentialSurface: gradient descent with
// Barzilai–Borwein step control. An end-to-end consumer of the analytic
// gradients, exercised by tests/test_md.cpp. No bench calls it: E6 and
// E7 run on the fixed and rigidly scanned geometries of src/workload.

#include "md/forces.hpp"

namespace mthfx::md {

struct OptimizeOptions {
  int max_steps = 100;
  double force_tolerance = 3e-4;   ///< max |F| component (Ha/Bohr)
  double initial_step = 0.5;       ///< Bohr^2/Ha scaling of first step
  double max_displacement = 0.3;   ///< trust radius per coordinate (Bohr)
};

struct OptimizeResult {
  bool converged = false;
  int steps = 0;
  double energy = 0.0;
  double max_force = 0.0;
  chem::Molecule geometry;
  std::vector<double> energy_trace;  ///< energy after each step
};

/// Minimize the surface starting from `initial`.
OptimizeResult optimize(const chem::Molecule& initial,
                        const PotentialSurface& surface,
                        const OptimizeOptions& options = {});

}  // namespace mthfx::md
