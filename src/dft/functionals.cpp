#include "dft/functionals.hpp"

#include <stdexcept>

#include "dft/xc_forms.hpp"

namespace mthfx::dft {

namespace {

// Each formula takes (rho, sigma).
constexpr auto kSlaterX = [](const auto& rho, const auto&) {
  return forms::slater_exchange(rho);
};
constexpr auto kPw92C = [](const auto& rho, const auto&) {
  return forms::pw92_correlation(rho);
};
constexpr auto kPbeX = [](const auto& rho, const auto& sigma) {
  return forms::pbe_exchange(rho, sigma);
};
constexpr auto kPbeC = [](const auto& rho, const auto& sigma) {
  return forms::pbe_correlation(rho, sigma);
};
constexpr auto kLda = [](const auto&... v) {
  return kSlaterX(v...) + kPw92C(v...);
};
constexpr auto kPbe = [](const auto&... v) {
  return kPbeX(v...) + kPbeC(v...);
};
constexpr auto kPbe0 = [](const auto&... v) {
  return 0.75 * kPbeX(v...) + kPbeC(v...);
};

// e and (d e/d rho, d e/d sigma) from one dual evaluation of f.
template <class F>
XcPoint point(F f, double rho, double sigma) {
  using D = Dual<2>;
  const D e = f(D::variable(rho, 0), D::variable(sigma, 1));
  return {e.v, e.d[0], e.d[1]};
}

}  // namespace

double lda_exchange_energy_density(double rho, double sigma) {
  return kSlaterX(rho, sigma);
}
XcPoint lda_exchange_point(double rho, double sigma) {
  return point(kSlaterX, rho, sigma);
}

double pw92_correlation_energy_density(double rho, double sigma) {
  return kPw92C(rho, sigma);
}
XcPoint pw92_correlation_point(double rho, double sigma) {
  return point(kPw92C, rho, sigma);
}

double pbe_exchange_energy_density(double rho, double sigma) {
  return kPbeX(rho, sigma);
}
XcPoint pbe_exchange_point(double rho, double sigma) {
  return point(kPbeX, rho, sigma);
}

double pbe_correlation_energy_density(double rho, double sigma) {
  return kPbeC(rho, sigma);
}
XcPoint pbe_correlation_point(double rho, double sigma) {
  return point(kPbeC, rho, sigma);
}

Functional make_functional(const std::string& name) {
  if (name == "lda")
    return {"lda", [](double r, double s) { return point(kLda, r, s); }, 0.0,
            false};
  if (name == "pbe")
    return {"pbe", [](double r, double s) { return point(kPbe, r, s); }, 0.0,
            true};
  if (name == "pbe0")
    return {"pbe0", [](double r, double s) { return point(kPbe0, r, s); },
            0.25, true};
  if (name == "hf")
    return {"hf", [](double, double) { return XcPoint{}; }, 1.0, false};
  throw std::invalid_argument("make_functional: unknown functional " + name);
}

}  // namespace mthfx::dft
