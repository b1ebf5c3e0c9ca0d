#pragma once

// Forward-mode dual numbers for the exchange–correlation functionals.
//
// A Dual<N> carries a value and its first derivatives with respect to N
// independent variables. The functional formulas are templates over the
// scalar type: instantiated with double they give the energy density,
// instantiated with Dual<N> one evaluation gives the energy density and
// its exact partial derivatives (the potentials), with no hand-derived
// second copy of the formula to keep in sync.
//
// The value part of every operation is computed exactly as the double
// overload computes it, so the energy of a dual evaluation equals the
// double evaluation bit for bit.

#include <array>
#include <cmath>
#include <cstddef>

namespace mthfx::dft {

template <std::size_t N>
struct Dual {
  double v = 0.0;               ///< value
  std::array<double, N> d{};    ///< partial derivatives

  Dual() = default;
  /// A constant (all derivatives zero); implicit so formulas can mix in
  /// plain double coefficients.
  Dual(double value) : v(value) {}

  /// Independent variable number k with the given value.
  static Dual variable(double value, std::size_t k) {
    Dual x(value);
    x.d[k] = 1.0;
    return x;
  }
};

/// The value of a scalar, for branches in the templated formulas.
inline double value(double x) { return x; }
template <std::size_t N>
double value(const Dual<N>& x) {
  return x.v;
}

namespace detail {
/// f(x) with derivative factor df = f'(x.v) applied by the chain rule.
template <std::size_t N>
Dual<N> chain(const Dual<N>& x, double f, double df) {
  Dual<N> r(f);
  for (std::size_t k = 0; k < N; ++k) r.d[k] = df * x.d[k];
  return r;
}
}  // namespace detail

template <std::size_t N>
Dual<N> operator-(const Dual<N>& a) {
  return detail::chain(a, -a.v, -1.0);
}

template <std::size_t N>
Dual<N> operator+(const Dual<N>& a, const Dual<N>& b) {
  Dual<N> r(a.v + b.v);
  for (std::size_t k = 0; k < N; ++k) r.d[k] = a.d[k] + b.d[k];
  return r;
}
template <std::size_t N>
Dual<N> operator-(const Dual<N>& a, const Dual<N>& b) {
  Dual<N> r(a.v - b.v);
  for (std::size_t k = 0; k < N; ++k) r.d[k] = a.d[k] - b.d[k];
  return r;
}
template <std::size_t N>
Dual<N> operator*(const Dual<N>& a, const Dual<N>& b) {
  Dual<N> r(a.v * b.v);
  for (std::size_t k = 0; k < N; ++k) r.d[k] = a.d[k] * b.v + a.v * b.d[k];
  return r;
}
template <std::size_t N>
Dual<N> operator/(const Dual<N>& a, const Dual<N>& b) {
  Dual<N> r(a.v / b.v);
  const double inv = 1.0 / b.v;
  for (std::size_t k = 0; k < N; ++k)
    r.d[k] = (a.d[k] - r.v * b.d[k]) * inv;
  return r;
}

template <std::size_t N>
Dual<N> operator+(const Dual<N>& a, double b) {
  Dual<N> r = a;
  r.v = a.v + b;
  return r;
}
template <std::size_t N>
Dual<N> operator+(double a, const Dual<N>& b) {
  Dual<N> r = b;
  r.v = a + b.v;
  return r;
}
template <std::size_t N>
Dual<N> operator-(const Dual<N>& a, double b) {
  Dual<N> r = a;
  r.v = a.v - b;
  return r;
}
template <std::size_t N>
Dual<N> operator-(double a, const Dual<N>& b) {
  return detail::chain(b, a - b.v, -1.0);
}
template <std::size_t N>
Dual<N> operator*(const Dual<N>& a, double b) {
  return detail::chain(a, a.v * b, b);
}
template <std::size_t N>
Dual<N> operator*(double a, const Dual<N>& b) {
  return detail::chain(b, a * b.v, a);
}
template <std::size_t N>
Dual<N> operator/(const Dual<N>& a, double b) {
  return detail::chain(a, a.v / b, 1.0 / b);
}
template <std::size_t N>
Dual<N> operator/(double a, const Dual<N>& b) {
  const double r = a / b.v;
  return detail::chain(b, r, -r / b.v);
}

template <std::size_t N>
Dual<N> sqrt(const Dual<N>& x) {
  const double s = std::sqrt(x.v);
  return detail::chain(x, s, 0.5 / s);
}
template <std::size_t N>
Dual<N> cbrt(const Dual<N>& x) {
  const double c = std::cbrt(x.v);
  return detail::chain(x, c, 1.0 / (3.0 * c * c));
}
template <std::size_t N>
Dual<N> pow(const Dual<N>& x, double a) {
  const double p = std::pow(x.v, a);
  return detail::chain(
      x, p, x.v != 0.0 ? a * p / x.v : a * std::pow(x.v, a - 1.0));
}
template <std::size_t N>
Dual<N> exp(const Dual<N>& x) {
  const double e = std::exp(x.v);
  return detail::chain(x, e, e);
}
template <std::size_t N>
Dual<N> expm1(const Dual<N>& x) {
  const double e = std::expm1(x.v);
  return detail::chain(x, e, e + 1.0);
}
template <std::size_t N>
Dual<N> log(const Dual<N>& x) {
  return detail::chain(x, std::log(x.v), 1.0 / x.v);
}
template <std::size_t N>
Dual<N> log1p(const Dual<N>& x) {
  return detail::chain(x, std::log1p(x.v), 1.0 / (1.0 + x.v));
}

}  // namespace mthfx::dft
