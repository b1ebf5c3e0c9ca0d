#pragma once

// The exchange–correlation formulas, written once as templates over the
// scalar type (dft/dual.hpp). functionals.cpp and spin_functionals.cpp
// instantiate them with double for the energy density alone and with
// Dual<N> for the energy density plus its exact potentials.
//
// Gradient terms enter only through sigma = |grad rho|^2 (never through
// |grad rho| itself), so the sigma derivative stays finite at sigma = 0.

#include <cmath>
#include <numbers>

#include "dft/dual.hpp"

namespace mthfx::dft::forms {

constexpr double kPi = std::numbers::pi;

/// One PW92 channel: G(rs) = -2A(1 + a1 rs) ln[1 + 1/(2A(b1 rs^{1/2} +
/// b2 rs + b3 rs^{3/2} + b4 rs^2))].
struct Pw92Channel {
  double a, alpha1, beta1, beta2, beta3, beta4;
};
constexpr Pw92Channel kPw92Unpolarized{0.031091, 0.21370, 7.5957,
                                       3.5876,   1.6382,  0.49294};
constexpr Pw92Channel kPw92Polarized{0.015545, 0.20548, 14.1189,
                                     6.1977,   3.3662,  0.62517};
/// G of this channel is minus the spin stiffness alpha_c.
constexpr Pw92Channel kPw92NegStiffness{0.016887, 0.11125, 10.357,
                                        3.6231,   0.88026, 0.49671};
constexpr double kFppZero = 1.7099209341613657;  // f''(0) = 8/(9(2^{1/3}-1))

constexpr double kPbeKappa = 0.804;
constexpr double kPbeMu = 0.2195149727645171;
constexpr double kPbeGamma = 0.031090690869654895;  // (1 - ln 2) / pi^2
constexpr double kPbeBeta = 0.06672455060314922;
/// |zeta| cap of PBE correlation: phi(zeta)'s slope diverges at +-1.
constexpr double kZetaMax = 1.0 - 1e-12;

template <class T>
T pw92_g(const T& rs, const Pw92Channel& c) {
  using std::log1p;
  using std::sqrt;
  const T srs = sqrt(rs);
  const T q = 2.0 * c.a *
              (c.beta1 * srs + c.beta2 * rs + c.beta3 * rs * srs +
               c.beta4 * rs * rs);
  return -2.0 * c.a * (1.0 + c.alpha1 * rs) * log1p(1.0 / q);
}

/// Wigner–Seitz radius of a (positive) total density.
template <class T>
T wigner_seitz_radius(const T& rho) {
  using std::cbrt;
  return cbrt(3.0 / (4.0 * kPi * rho));
}

/// sigma clamped to >= 0 (a sum of squares that rounding can dip below).
template <class T>
T non_negative(const T& sigma) {
  return value(sigma) > 0.0 ? sigma : T(0.0);
}

/// Slater exchange -Cx rho^{4/3}, Cx = (3/4)(3/pi)^{1/3}.
template <class T>
T slater_exchange(const T& rho) {
  using std::cbrt;
  if (value(rho) <= 0.0) return T(0.0);
  const double cx = 0.75 * std::cbrt(3.0 / kPi);
  return -cx * rho * cbrt(rho);
}

/// PW92 correlation energy density of an unpolarized density.
template <class T>
T pw92_correlation(const T& rho) {
  if (value(rho) <= 0.0) return T(0.0);
  return rho * pw92_g(wigner_seitz_radius(rho), kPw92Unpolarized);
}

/// PBE exchange: Slater times F_x(s^2), s^2 = sigma / (2 kf rho)^2.
template <class T>
T pbe_exchange(const T& rho, const T& sigma) {
  using std::cbrt;
  if (value(rho) <= 0.0) return T(0.0);
  const T kf = cbrt(3.0 * kPi * kPi * rho);
  const T s2 = non_negative(sigma) / (4.0 * kf * kf * rho * rho);
  const T fx = 1.0 + kPbeKappa - kPbeKappa / (1.0 + kPbeMu / kPbeKappa * s2);
  return slater_exchange(rho) * fx;
}

/// PBE's gradient correction H(eps_c, phi^3, t^2) per particle.
template <class T>
T pbe_h(const T& eps_c, const T& phi3, const T& t2) {
  using std::expm1;
  using std::log1p;
  const T expo_m1 = expm1(-eps_c / (kPbeGamma * phi3));
  if (value(expo_m1) == 0.0) return T(0.0);
  const T a = kPbeBeta / kPbeGamma / expo_m1;
  const T at2 = a * t2;
  const T ratio = (1.0 + at2) / (1.0 + at2 + at2 * at2);
  return kPbeGamma * phi3 * log1p(kPbeBeta / kPbeGamma * t2 * ratio);
}

/// PBE correlation of an unpolarized density (phi = 1):
/// t^2 = sigma / (2 ks rho)^2 with ks^2 = 4 kf / pi.
template <class T>
T pbe_correlation(const T& rho, const T& sigma) {
  using std::cbrt;
  if (value(rho) <= 0.0) return T(0.0);
  const T eps_c = pw92_g(wigner_seitz_radius(rho), kPw92Unpolarized);
  const T ks2 = 4.0 / kPi * cbrt(3.0 * kPi * kPi * rho);
  const T t2 = non_negative(sigma) / (4.0 * ks2 * rho * rho);
  return rho * (eps_c + pbe_h(eps_c, T(1.0), t2));
}

/// PW92 spin interpolation f(zeta).
template <class T>
T pw92_f_zeta(const T& zeta) {
  using std::pow;
  return (pow(1.0 + zeta, 4.0 / 3.0) + pow(1.0 - zeta, 4.0 / 3.0) - 2.0) /
         (2.0 * (std::cbrt(2.0) - 1.0));
}

/// PW92 correlation energy per particle at (rs, zeta).
template <class T>
T pw92_eps_c_spin(const T& rs, const T& zeta) {
  const T ec0 = pw92_g(rs, kPw92Unpolarized);
  const T ec1 = pw92_g(rs, kPw92Polarized);
  const T alpha_c = -pw92_g(rs, kPw92NegStiffness);
  const T f = pw92_f_zeta(zeta);
  const T z4 = zeta * zeta * zeta * zeta;
  return ec0 + alpha_c * f / kFppZero * (1.0 - z4) + (ec1 - ec0) * f * z4;
}

/// LSDA exchange by exact spin scaling: [e_x(2 ra) + e_x(2 rb)] / 2.
template <class T>
T lsda_exchange(const T& ra, const T& rb) {
  return 0.5 * (slater_exchange(2.0 * ra) + slater_exchange(2.0 * rb));
}

template <class T>
T pw92_correlation_spin(const T& ra, const T& rb) {
  const T rho = ra + rb;
  if (value(rho) <= 0.0) return T(0.0);
  return rho * pw92_eps_c_spin(wigner_seitz_radius(rho), (ra - rb) / rho);
}

/// Spin-resolved PBE exchange: the doubled density of each spin carries
/// 4 sigma_ss.
template <class T>
T pbe_exchange_spin(const T& ra, const T& rb, const T& saa, const T& sbb) {
  return 0.5 * (pbe_exchange(2.0 * ra, 4.0 * saa) +
                pbe_exchange(2.0 * rb, 4.0 * sbb));
}

/// Spin-resolved PBE correlation; `sigma` is the total |grad rho|^2.
template <class T>
T pbe_correlation_spin(const T& ra, const T& rb, const T& sigma) {
  using std::cbrt;
  using std::pow;
  const T rho = ra + rb;
  if (value(rho) <= 0.0) return T(0.0);
  T zeta = (ra - rb) / rho;
  if (std::abs(value(zeta)) > kZetaMax)
    zeta = T(std::copysign(kZetaMax, value(zeta)));
  const T eps_c = pw92_eps_c_spin(wigner_seitz_radius(rho), zeta);

  const T phi = 0.5 * (pow(1.0 + zeta, 2.0 / 3.0) + pow(1.0 - zeta, 2.0 / 3.0));
  const T ks2 = 4.0 / kPi * cbrt(3.0 * kPi * kPi * rho);
  const T t2 = non_negative(sigma) / (4.0 * phi * phi * ks2 * rho * rho);
  return rho * (eps_c + pbe_h(eps_c, phi * phi * phi, t2));
}

}  // namespace mthfx::dft::forms
