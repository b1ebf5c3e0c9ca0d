#pragma once

// Closed-shell exchange–correlation functionals:
//   * Slater (LDA) exchange
//   * PW92 LDA correlation (the form PBE builds on)
//   * PBE GGA exchange and correlation
// plus the hybrid compositions used in the paper (PBE0 = 25% exact
// exchange + 75% PBE exchange + 100% PBE correlation).
//
// All functionals return the energy density per volume e_xc(rho, sigma)
// with sigma = |grad rho|^2; potentials (v_rho = d e/d rho, v_sigma =
// d e/d sigma) are produced by the integrator (dft/xc_integrator.cpp) as
// two-point central differences with a relative step of 1e-6, which
// keeps the closed-form code small at the price of about 1e-10 relative
// precision in the potentials.

#include <functional>
#include <string>

namespace mthfx::dft {

/// Energy density per unit volume at (rho, sigma); rho is the *total*
/// closed-shell density.
using EnergyDensity = std::function<double(double rho, double sigma)>;

/// Slater LDA exchange: e_x = -Cx rho^{4/3}, Cx = (3/4)(3/pi)^{1/3}.
double lda_exchange_energy_density(double rho, double sigma);

/// PW92 LDA correlation (spin-unpolarized).
double pw92_correlation_energy_density(double rho, double sigma);

/// PBE exchange (Perdew, Burke, Ernzerhof 1996).
double pbe_exchange_energy_density(double rho, double sigma);

/// PBE correlation.
double pbe_correlation_energy_density(double rho, double sigma);

struct Functional {
  std::string name;
  EnergyDensity energy_density;   ///< semilocal part
  double exact_exchange = 0.0;    ///< fraction of HFX mixed in
  bool needs_gradient = false;    ///< GGA?
};

/// Registry: "lda" (Slater x + PW92 c), "pbe", "pbe0", "hf" (pure HFX,
/// zero semilocal part). Throws std::invalid_argument for unknown names.
Functional make_functional(const std::string& name);

}  // namespace mthfx::dft
