#pragma once

// Closed-shell exchange–correlation functionals:
//   * Slater (LDA) exchange
//   * PW92 LDA correlation (the form PBE builds on)
//   * PBE GGA exchange and correlation
// plus the hybrid compositions used in the paper (PBE0 = 25% exact
// exchange + 75% PBE exchange + 100% PBE correlation).
//
// Each functional gives the energy density per volume e_xc(rho, sigma),
// with sigma = |grad rho|^2, and, from the same single evaluation, the
// exact potentials v_rho = d e/d rho and v_sigma = d e/d sigma. The
// formulas are written once (dft/xc_forms.hpp) and differentiated in
// forward mode (dft/dual.hpp). The central-difference potentials the
// integrator once used survive only as a test oracle
// (testing::central_difference_xc).

#include <string>

namespace mthfx::dft {

/// e_xc and its potentials at one point.
struct XcPoint {
  double e = 0.0;       ///< energy density per unit volume
  double vrho = 0.0;    ///< d e / d rho
  double vsigma = 0.0;  ///< d e / d sigma
};

/// One functional evaluation at (rho, sigma); rho is the *total*
/// closed-shell density.
using XcEvaluator = XcPoint (*)(double rho, double sigma);

/// Slater LDA exchange: e_x = -Cx rho^{4/3}, Cx = (3/4)(3/pi)^{1/3}.
double lda_exchange_energy_density(double rho, double sigma);
XcPoint lda_exchange_point(double rho, double sigma);

/// PW92 LDA correlation (spin-unpolarized).
double pw92_correlation_energy_density(double rho, double sigma);
XcPoint pw92_correlation_point(double rho, double sigma);

/// PBE exchange (Perdew, Burke, Ernzerhof 1996).
double pbe_exchange_energy_density(double rho, double sigma);
XcPoint pbe_exchange_point(double rho, double sigma);

/// PBE correlation.
double pbe_correlation_energy_density(double rho, double sigma);
XcPoint pbe_correlation_point(double rho, double sigma);

struct Functional {
  std::string name;
  XcEvaluator evaluate = nullptr;  ///< semilocal part
  double exact_exchange = 0.0;     ///< fraction of HFX mixed in
  bool needs_gradient = false;     ///< GGA?

  double energy_density(double rho, double sigma) const {
    return evaluate(rho, sigma).e;
  }
};

/// Registry: "lda" (Slater x + PW92 c), "pbe", "pbe0", "hf" (pure HFX,
/// zero semilocal part). Throws std::invalid_argument for unknown names.
Functional make_functional(const std::string& name);

}  // namespace mthfx::dft
