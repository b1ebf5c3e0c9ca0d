#pragma once

// Spin-polarized (unrestricted) exchange–correlation functionals:
// LSDA (Slater x + full PW92 c(rs, zeta)), spin-resolved PBE, and the
// PBE0 hybrid composition. These extend the closed-shell functionals in
// functionals.hpp to the open-shell species of the Li/air mechanism.
//
// Conventions: energy density per volume as a function of
// (rho_a, rho_b, sigma_aa, sigma_ab, sigma_bb) with
// sigma_xy = grad rho_x . grad rho_y. As in functionals.hpp, one
// evaluation gives the energy density and all five exact partials.

#include <string>

namespace mthfx::dft {

struct SpinDensity {
  double rho_a = 0.0, rho_b = 0.0;
  double sigma_aa = 0.0, sigma_ab = 0.0, sigma_bb = 0.0;

  double rho() const { return rho_a + rho_b; }
  double sigma() const { return sigma_aa + 2.0 * sigma_ab + sigma_bb; }
  double zeta() const {
    const double r = rho();
    return r > 0.0 ? (rho_a - rho_b) / r : 0.0;
  }
};

/// e_xc and its five partials at one point.
struct SpinXcPoint {
  double e = 0.0;
  double vrho_a = 0.0, vrho_b = 0.0;
  double vsigma_aa = 0.0, vsigma_ab = 0.0, vsigma_bb = 0.0;
};

using SpinXcEvaluator = SpinXcPoint (*)(const SpinDensity& d);

/// LSDA exchange via the exact spin-scaling relation
/// e_x(ra, rb) = [e_x^unpol(2 ra) + e_x^unpol(2 rb)] / 2.
double lsda_exchange_energy_density(const SpinDensity& d);
SpinXcPoint lsda_exchange_point(const SpinDensity& d);

/// PW92 correlation energy per particle at (rs, zeta) — the full
/// parametrization with the spin-stiffness interpolation.
double pw92_eps_c_spin(double rs, double zeta);

/// PW92 correlation energy density for a spin density.
double pw92_correlation_energy_density_spin(const SpinDensity& d);
SpinXcPoint pw92_correlation_point_spin(const SpinDensity& d);

/// Spin-resolved PBE exchange (spin scaling of the enhancement factor).
double pbe_exchange_energy_density_spin(const SpinDensity& d);
SpinXcPoint pbe_exchange_point_spin(const SpinDensity& d);

/// Spin-resolved PBE correlation (phi(zeta) gradient coupling).
double pbe_correlation_energy_density_spin(const SpinDensity& d);
SpinXcPoint pbe_correlation_point_spin(const SpinDensity& d);

struct SpinFunctional {
  std::string name;
  SpinXcEvaluator evaluate = nullptr;
  double exact_exchange = 0.0;
  bool needs_gradient = false;

  double energy_density(const SpinDensity& d) const { return evaluate(d).e; }
};

/// Registry: "lda", "pbe", "pbe0", "hf" (spin-polarized forms).
SpinFunctional make_spin_functional(const std::string& name);

}  // namespace mthfx::dft
