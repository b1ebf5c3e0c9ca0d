#include "dft/spin_functionals.hpp"

#include <stdexcept>

#include "dft/xc_forms.hpp"

namespace mthfx::dft {

namespace {

// Each formula takes (ra, rb, saa, sab, sbb).
constexpr auto kLsdaX = [](const auto& ra, const auto& rb, const auto&,
                           const auto&, const auto&) {
  return forms::lsda_exchange(ra, rb);
};
constexpr auto kPw92C = [](const auto& ra, const auto& rb, const auto&,
                           const auto&, const auto&) {
  return forms::pw92_correlation_spin(ra, rb);
};
constexpr auto kPbeX = [](const auto& ra, const auto& rb, const auto& saa,
                          const auto&, const auto& sbb) {
  return forms::pbe_exchange_spin(ra, rb, saa, sbb);
};
constexpr auto kPbeC = [](const auto& ra, const auto& rb, const auto& saa,
                          const auto& sab, const auto& sbb) {
  return forms::pbe_correlation_spin(ra, rb, saa + 2.0 * sab + sbb);
};
constexpr auto kLsda = [](const auto&... v) {
  return kLsdaX(v...) + kPw92C(v...);
};
constexpr auto kPbe = [](const auto&... v) {
  return kPbeX(v...) + kPbeC(v...);
};
constexpr auto kPbe0 = [](const auto&... v) {
  return 0.75 * kPbeX(v...) + kPbeC(v...);
};

template <class F>
double energy(F f, const SpinDensity& d) {
  return f(d.rho_a, d.rho_b, d.sigma_aa, d.sigma_ab, d.sigma_bb);
}

// e and its five partials from one dual evaluation of f.
template <class F>
SpinXcPoint point(F f, const SpinDensity& d) {
  using D = Dual<5>;
  const D e = f(D::variable(d.rho_a, 0), D::variable(d.rho_b, 1),
                D::variable(d.sigma_aa, 2), D::variable(d.sigma_ab, 3),
                D::variable(d.sigma_bb, 4));
  return {e.v, e.d[0], e.d[1], e.d[2], e.d[3], e.d[4]};
}

}  // namespace

double lsda_exchange_energy_density(const SpinDensity& d) {
  return energy(kLsdaX, d);
}
SpinXcPoint lsda_exchange_point(const SpinDensity& d) {
  return point(kLsdaX, d);
}

double pw92_eps_c_spin(double rs, double zeta) {
  return forms::pw92_eps_c_spin(rs, zeta);
}

double pw92_correlation_energy_density_spin(const SpinDensity& d) {
  return energy(kPw92C, d);
}
SpinXcPoint pw92_correlation_point_spin(const SpinDensity& d) {
  return point(kPw92C, d);
}

double pbe_exchange_energy_density_spin(const SpinDensity& d) {
  return energy(kPbeX, d);
}
SpinXcPoint pbe_exchange_point_spin(const SpinDensity& d) {
  return point(kPbeX, d);
}

double pbe_correlation_energy_density_spin(const SpinDensity& d) {
  return energy(kPbeC, d);
}
SpinXcPoint pbe_correlation_point_spin(const SpinDensity& d) {
  return point(kPbeC, d);
}

SpinFunctional make_spin_functional(const std::string& name) {
  if (name == "lda")
    return {"lda", [](const SpinDensity& d) { return point(kLsda, d); }, 0.0,
            false};
  if (name == "pbe")
    return {"pbe", [](const SpinDensity& d) { return point(kPbe, d); }, 0.0,
            true};
  if (name == "pbe0")
    return {"pbe0", [](const SpinDensity& d) { return point(kPbe0, d); },
            0.25, true};
  if (name == "hf")
    return {"hf", [](const SpinDensity&) { return SpinXcPoint{}; }, 1.0,
            false};
  throw std::invalid_argument("make_spin_functional: unknown functional " +
                              name);
}

}  // namespace mthfx::dft
