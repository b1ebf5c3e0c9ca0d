#include "chem/basis.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace mthfx::chem {

std::vector<CartPowers> cartesian_powers(int l) {
  std::vector<CartPowers> out;
  out.reserve(num_cartesians(l));
  for (int lx = l; lx >= 0; --lx)
    for (int ly = l - lx; ly >= 0; --ly) out.push_back({lx, ly, l - lx - ly});
  return out;
}

double odd_double_factorial(int n) {
  // (2n-1)!! for n >= 0; (2*0-1)!! = (-1)!! = 1.
  double r = 1.0;
  for (int k = 2 * n - 1; k > 1; k -= 2) r *= k;
  return r;
}

double primitive_norm(double a, int i, int j, int k) {
  const int l = i + j + k;
  const double dfact =
      odd_double_factorial(i) * odd_double_factorial(j) * odd_double_factorial(k);
  return std::pow(2.0 * a / std::numbers::pi, 0.75) *
         std::pow(4.0 * a, 0.5 * l) / std::sqrt(dfact);
}

Shell::Shell(int l, std::size_t atom_index, Vec3 center,
             std::vector<double> exponents, std::vector<double> coefs)
    : l_(l),
      atom_index_(atom_index),
      center_(center),
      exponents_(std::move(exponents)),
      coefs_(std::move(coefs)) {
  if (l_ < 0) throw std::invalid_argument("Shell: negative angular momentum");
  if (exponents_.size() != coefs_.size() || exponents_.empty())
    throw std::invalid_argument("Shell: exponent/coefficient size mismatch");

  // Contraction normalization: the self-overlap of the contracted
  // (l,0,0) component with normalized primitives must be 1. The
  // double-factorial factors cancel between primitive norms and the
  // moment integral, so the same scale applies to every component.
  const std::size_t np = exponents_.size();
  double self = 0.0;
  for (std::size_t p = 0; p < np; ++p) {
    for (std::size_t q = 0; q < np; ++q) {
      const double ap = exponents_[p], aq = exponents_[q];
      const double gamma = ap + aq;
      // <p|q> for (l,0,0) primitives with norms included:
      // N_p N_q (2l-1)!!/(2 gamma)^l (pi/gamma)^{3/2}
      const double np_ = primitive_norm(ap, l_, 0, 0);
      const double nq_ = primitive_norm(aq, l_, 0, 0);
      const double ovl = np_ * nq_ * odd_double_factorial(l_) /
                         std::pow(2.0 * gamma, l_) *
                         std::pow(std::numbers::pi / gamma, 1.5);
      self += coefs_[p] * coefs_[q] * ovl;
    }
  }
  const double scale = 1.0 / std::sqrt(self);
  for (double& c : coefs_) c *= scale;

  // Precompute fully normalized coefficients per (primitive, component).
  const auto powers = cartesian_powers(l_);
  norm_coefs_.resize(np * powers.size());
  for (std::size_t p = 0; p < np; ++p)
    for (std::size_t c = 0; c < powers.size(); ++c)
      norm_coefs_[p * powers.size() + c] =
          coefs_[p] *
          primitive_norm(exponents_[p], powers[c].x, powers[c].y, powers[c].z);
}

double Shell::min_exponent() const {
  double m = exponents_.front();
  for (double e : exponents_) m = std::min(m, e);
  return m;
}

void BasisSet::add_shell(Shell shell) {
  offsets_.push_back(nao_);
  nao_ += shell.num_functions();
  shells_.push_back(std::move(shell));
}

BasisSet BasisSet::build(const Molecule& mol, std::string_view name) {
  BasisSet basis;
  for (std::size_t i = 0; i < mol.size(); ++i) {
    const Atom& atom = mol.atom(i);
    for (const auto& entry : detail::element_basis(name, atom.z)) {
      basis.add_shell(
          Shell(entry.l, i, atom.pos, entry.exponents, entry.coefs));
    }
  }
  return basis;
}

void BasisSet::evaluate_shell_with_gradient(std::size_t s, const Vec3& point,
                                            double* val, double* dx,
                                            double* dy, double* dz) const {
  // d/dx [x^i e^{-a r^2}] = (i x^{i-1} - 2 a x^{i+1}) e^{-a r^2}; the
  // same pattern per Cartesian direction.
  auto powi = [](double x, int n) {
    double r = 1.0;
    for (int k = 0; k < n; ++k) r *= x;
    return r;
  };

  const Shell& sh = shells_[s];
  const std::size_t nf = sh.num_functions();
  std::fill(val, val + nf, 0.0);
  std::fill(dx, dx + nf, 0.0);
  std::fill(dy, dy + nf, 0.0);
  std::fill(dz, dz + nf, 0.0);

  const Vec3 r = point - sh.center();
  const double r2 = dot(r, r);
  const auto powers = cartesian_powers(sh.l());
  for (std::size_t p = 0; p < sh.num_primitives(); ++p) {
    const double a = sh.exponents()[p];
    const double e = std::exp(-a * r2);
    if (e < 1e-16) continue;
    for (std::size_t c = 0; c < powers.size(); ++c) {
      const int i = powers[c].x, j = powers[c].y, k = powers[c].z;
      const double xi = powi(r[0], i), yj = powi(r[1], j), zk = powi(r[2], k);
      const double nc = sh.norm_coef(p, c) * e;
      val[c] += nc * xi * yj * zk;
      const double dxi = (i > 0 ? i * powi(r[0], i - 1) : 0.0) -
                         2.0 * a * powi(r[0], i + 1);
      const double dyj = (j > 0 ? j * powi(r[1], j - 1) : 0.0) -
                         2.0 * a * powi(r[1], j + 1);
      const double dzk = (k > 0 ? k * powi(r[2], k - 1) : 0.0) -
                         2.0 * a * powi(r[2], k + 1);
      dx[c] += nc * dxi * yj * zk;
      dy[c] += nc * xi * dyj * zk;
      dz[c] += nc * xi * yj * dzk;
    }
  }
}

void BasisSet::evaluate_with_gradient(const Vec3& point,
                                      std::vector<double>& val,
                                      std::vector<double>& dx,
                                      std::vector<double>& dy,
                                      std::vector<double>& dz) const {
  val.resize(nao_);
  dx.resize(nao_);
  dy.resize(nao_);
  dz.resize(nao_);
  for (std::size_t s = 0; s < shells_.size(); ++s) {
    const std::size_t base = offsets_[s];
    evaluate_shell_with_gradient(s, point, val.data() + base,
                                 dx.data() + base, dy.data() + base,
                                 dz.data() + base);
  }
}

void BasisSet::evaluate_shell_with_hessian(std::size_t s, const Vec3& point,
                                           double* dxx, double* dxy,
                                           double* dxz, double* dyy,
                                           double* dyz, double* dzz) const {
  auto powi = [](double x, int n) {
    double r = 1.0;
    for (int k = 0; k < n; ++k) r *= x;
    return r;
  };
  // Per-dimension factors of x^i e^{-a x^2} with the shared Gaussian
  // pulled out: f = x^i, f' = i x^{i-1} - 2a x^{i+1},
  // f'' = i(i-1) x^{i-2} - 2a(2i+1) x^i + 4a^2 x^{i+2}. Mixed second
  // derivatives are products of first-derivative factors.
  auto d1 = [&](double x, int i, double a) {
    return (i > 0 ? i * powi(x, i - 1) : 0.0) - 2.0 * a * powi(x, i + 1);
  };
  auto d2 = [&](double x, int i, double a) {
    double v = -2.0 * a * (2 * i + 1) * powi(x, i) +
               4.0 * a * a * powi(x, i + 2);
    if (i > 1) v += i * (i - 1) * powi(x, i - 2);
    return v;
  };

  const Shell& sh = shells_[s];
  const std::size_t nf = sh.num_functions();
  for (double* h : {dxx, dxy, dxz, dyy, dyz, dzz}) std::fill(h, h + nf, 0.0);

  const Vec3 r = point - sh.center();
  const double r2 = dot(r, r);
  const auto powers = cartesian_powers(sh.l());
  for (std::size_t p = 0; p < sh.num_primitives(); ++p) {
    const double a = sh.exponents()[p];
    const double e = std::exp(-a * r2);
    if (e < 1e-16) continue;
    for (std::size_t c = 0; c < powers.size(); ++c) {
      const int i = powers[c].x, j = powers[c].y, k = powers[c].z;
      const double fx = powi(r[0], i), fy = powi(r[1], j), fz = powi(r[2], k);
      const double gx = d1(r[0], i, a), gy = d1(r[1], j, a),
                   gz = d1(r[2], k, a);
      const double nc = sh.norm_coef(p, c) * e;
      dxx[c] += nc * d2(r[0], i, a) * fy * fz;
      dyy[c] += nc * fx * d2(r[1], j, a) * fz;
      dzz[c] += nc * fx * fy * d2(r[2], k, a);
      dxy[c] += nc * gx * gy * fz;
      dxz[c] += nc * gx * fy * gz;
      dyz[c] += nc * fx * gy * gz;
    }
  }
}

}  // namespace mthfx::chem
