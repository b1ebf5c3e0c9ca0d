#include "dft/xc_integrator.hpp"

#include <algorithm>
#include <cmath>

#include "hfx/cell_list.hpp"
#include "obs/trace.hpp"

namespace mthfx::dft {

using linalg::Matrix;

namespace {

/// e_xc and its central-difference potentials v_rho = de/drho and
/// v_sigma = de/dsigma at one closed-shell point. integrate and gradient
/// both use it, so the gradient is consistent with the converged V_xc.
struct XcTriple {
  double e = 0.0, vrho = 0.0, vsigma = 0.0;
};

XcTriple xc_triple(const Functional& functional, double rho, double sigma) {
  XcTriple x;
  x.e = functional.energy_density(rho, sigma);
  const double hr = std::max(1e-9, 1e-6 * rho);
  x.vrho = (functional.energy_density(rho + hr, sigma) -
            functional.energy_density(rho - hr, sigma)) /
           (2.0 * hr);
  if (functional.needs_gradient && sigma > 1e-24) {
    const double hs = std::max(1e-12, 1e-6 * sigma);
    x.vsigma = (functional.energy_density(rho, sigma + hs) -
                functional.energy_density(rho, sigma - hs)) /
               (2.0 * hs);
  }
  return x;
}

}  // namespace

XcIntegrator::XcIntegrator(const chem::BasisSet& basis,
                           const MolecularGrid& grid)
    : basis_(basis), grid_(grid) {
  const std::size_t ns = basis.num_shells();
  const std::size_t np = grid.size();
  std::vector<double> radius2 = hfx::shell_extent_radii(basis);
  for (double& r : radius2) r *= r;

  row_off_.reserve(np + 1);
  row_off_.push_back(0);
  shell_off_.reserve(np + 1);
  shell_off_.push_back(0);
  std::vector<double> val(6), dx(6), dy(6), dz(6);  // per-shell scratch
  for (std::size_t g = 0; g < np; ++g) {
    const chem::Vec3 pos = grid.points()[g].pos;
    for (std::size_t s = 0; s < ns; ++s) {
      const chem::Shell& sh = basis.shell(s);
      const chem::Vec3 d = pos - sh.center();
      if (chem::dot(d, d) > radius2[s]) continue;
      const std::size_t nf = sh.num_functions();
      if (val.size() < nf) {
        val.resize(nf);
        dx.resize(nf);
        dy.resize(nf);
        dz.resize(nf);
      }
      basis.evaluate_shell_with_gradient(s, pos, val.data(), dx.data(),
                                         dy.data(), dz.data());
      shells_.push_back(static_cast<std::uint32_t>(s));
      const std::size_t base = basis.first_function(s);
      for (std::size_t c = 0; c < nf; ++c) {
        cols_.push_back(static_cast<std::uint32_t>(base + c));
        ao_.push_back(val[c]);
        ax_.push_back(dx[c]);
        ay_.push_back(dy[c]);
        az_.push_back(dz[c]);
      }
    }
    row_off_.push_back(cols_.size());
    shell_off_.push_back(shells_.size());
  }
}

double XcIntegrator::cached_fraction() const {
  const double dense = static_cast<double>(grid_.size()) *
                       static_cast<double>(basis_.num_functions());
  return dense > 0.0 ? static_cast<double>(cols_.size()) / dense : 1.0;
}

XcIntegrator::Row XcIntegrator::row(std::size_t g) const {
  const std::size_t k = row_off_[g];
  return {row_off_[g + 1] - k, ao_.data() + k, ax_.data() + k,
          ay_.data() + k,     az_.data() + k, cols_.data() + k};
}

XcIntegrator::PointDensity XcIntegrator::point_density(const Row& r,
                                                       const Matrix& density,
                                                       bool with_gradient,
                                                       double* pphi) {
  PointDensity d;
  for (std::size_t mu = 0; mu < r.n; ++mu) {
    double t = 0.0;
    for (std::size_t nu = 0; nu < r.n; ++nu)
      t += density(r.idx[mu], r.idx[nu]) * r.phi[nu];
    pphi[mu] = t;
    d.rho += t * r.phi[mu];
  }
  if (with_gradient) {
    for (std::size_t mu = 0; mu < r.n; ++mu) {
      d.dx += 2.0 * pphi[mu] * r.gx[mu];
      d.dy += 2.0 * pphi[mu] * r.gy[mu];
      d.dz += 2.0 * pphi[mu] * r.gz[mu];
    }
    d.sigma = d.dx * d.dx + d.dy * d.dy + d.dz * d.dz;
  }
  return d;
}

double XcIntegrator::integrate_density(const Matrix& density) const {
  double n = 0.0;
  std::vector<double> pphi(basis_.num_functions());
  for (std::size_t g = 0; g < grid_.size(); ++g)
    n += grid_.points()[g].weight *
         point_density(row(g), density, false, pphi.data()).rho;
  return n;
}

XcResult XcIntegrator::integrate(const Functional& functional,
                                 const Matrix& density) const {
  const obs::Trace::Scope span(obs::global_trace(), "dft.xc");
  const std::size_t nao = basis_.num_functions();
  XcResult result;
  result.v = Matrix(nao, nao);

  std::vector<double> pphi(nao);  // (P phi) at the current point

  for (std::size_t g = 0; g < grid_.size(); ++g) {
    const double w = grid_.points()[g].weight;
    const Row r = row(g);
    const PointDensity d =
        point_density(r, density, functional.needs_gradient, pphi.data());
    if (d.rho < 1e-12) continue;
    result.integrated_density += w * d.rho;
    const XcTriple x = xc_triple(functional, d.rho, d.sigma);
    result.energy += w * x.e;

    // Symmetric rank-2 update: V += t phi^T + phi t^T with
    // t = (w vrho / 2) phi + (2 w vsigma) (grad rho . grad phi).
    for (std::size_t mu = 0; mu < r.n; ++mu) {
      const double dot = d.dx * r.gx[mu] + d.dy * r.gy[mu] + d.dz * r.gz[mu];
      const double t =
          0.5 * w * x.vrho * r.phi[mu] + 2.0 * w * x.vsigma * dot;
      if (t == 0.0) continue;
      for (std::size_t nu = 0; nu < r.n; ++nu) {
        result.v(r.idx[mu], r.idx[nu]) += t * r.phi[nu];
        result.v(r.idx[nu], r.idx[mu]) += t * r.phi[nu];
      }
    }
  }
  return result;
}

std::vector<chem::Vec3> XcIntegrator::gradient(const Functional& functional,
                                               const Matrix& density,
                                               const chem::Molecule& mol) const {
  const obs::Trace::Scope span(obs::global_trace(), "dft.xc_grad");
  const std::size_t nao = basis_.num_functions();
  const bool gga = functional.needs_gradient;
  std::vector<chem::Vec3> grad(mol.size(), chem::Vec3{0, 0, 0});

  std::vector<double> pphi(nao), pgx(nao), pgy(nao), pgz(nao);
  // One shell's AO Hessians, xx, xy, xz, yy, yz, zz blocks of max_nf.
  std::size_t max_nf = 0;
  for (const chem::Shell& sh : basis_.shells())
    max_nf = std::max(max_nf, sh.num_functions());
  std::vector<double> hess(6 * max_nf);
  double* hxx = hess.data();
  double* hxy = hxx + max_nf;
  double* hxz = hxy + max_nf;
  double* hyy = hxz + max_nf;
  double* hyz = hyy + max_nf;
  double* hzz = hyz + max_nf;

  for (std::size_t g = 0; g < grid_.size(); ++g) {
    const GridPoint& gp = grid_.points()[g];
    const double w = gp.weight;
    const Row r = row(g);
    const PointDensity d = point_density(r, density, gga, pphi.data());
    if (d.rho < 1e-12) continue;
    const XcTriple x = xc_triple(functional, d.rho, d.sigma);

    if (gga) {
      // P grad(phi) over the row, for the d(sigma)/dR term.
      for (std::size_t mu = 0; mu < r.n; ++mu) {
        double tx = 0.0, ty = 0.0, tz = 0.0;
        for (std::size_t nu = 0; nu < r.n; ++nu) {
          const double pmn = density(r.idx[mu], r.idx[nu]);
          tx += pmn * r.gx[nu];
          ty += pmn * r.gy[nu];
          tz += pmn * r.gz[nu];
        }
        pgx[mu] = tx;
        pgy[mu] = ty;
        pgz[mu] = tz;
      }
    }

    // Orbital terms: X_C = vrho drho/dR_C + vsigma dsigma/dR_C at fixed
    // point, accumulated per owning atom; the grid point riding on its
    // parent atom contributes -sum_C X_C there (translational
    // invariance of rho and sigma under a rigid shift).
    chem::Vec3 x_total{0, 0, 0};
    std::size_t mu = 0;
    for (std::size_t k = shell_off_[g]; k < shell_off_[g + 1]; ++k) {
      const chem::Shell& sh = basis_.shell(shells_[k]);
      if (gga)
        basis_.evaluate_shell_with_hessian(shells_[k], gp.pos, hxx, hxy, hxz,
                                           hyy, hyz, hzz);
      for (std::size_t c = 0; c < sh.num_functions(); ++c, ++mu) {
        const chem::Vec3 dphi{r.gx[mu], r.gy[mu], r.gz[mu]};
        chem::Vec3 x_mu = (-2.0 * x.vrho * pphi[mu]) * dphi;
        if (gga) {
          // (Hessian of phi_mu) . grad rho
          const chem::Vec3 hdr{
              hxx[c] * d.dx + hxy[c] * d.dy + hxz[c] * d.dz,
              hxy[c] * d.dx + hyy[c] * d.dy + hyz[c] * d.dz,
              hxz[c] * d.dx + hyz[c] * d.dy + hzz[c] * d.dz};
          const double gdotpg = d.dx * pgx[mu] + d.dy * pgy[mu] +
                                d.dz * pgz[mu];
          x_mu = x_mu +
                 (-4.0 * x.vsigma) * (pphi[mu] * hdr + gdotpg * dphi);
        }
        grad[sh.atom_index()] = grad[sh.atom_index()] + w * x_mu;
        x_total = x_total + x_mu;
      }
    }
    grad[gp.parent] = grad[gp.parent] - w * x_total;

    // Grid-weight term: w = w0 * P_parent with w0 the (geometry-
    // independent) radial x angular weight. dP uses the same
    // translational-invariance correction for the moving point.
    if (gp.becke > 0.0 && mol.size() > 1) {
      const double w0 = w / gp.becke;
      const auto dp = becke_weight_gradient(mol, gp.parent, gp.pos);
      chem::Vec3 dp_total{0, 0, 0};
      for (std::size_t b = 0; b < mol.size(); ++b) {
        grad[b] = grad[b] + (w0 * x.e) * dp[b];
        dp_total = dp_total + dp[b];
      }
      grad[gp.parent] = grad[gp.parent] - (w0 * x.e) * dp_total;
    }
  }
  return grad;
}

XcSpinResult XcIntegrator::integrate_spin(const SpinFunctional& functional,
                                          const Matrix& density_alpha,
                                          const Matrix& density_beta) const {
  const obs::Trace::Scope span(obs::global_trace(), "dft.xc");
  const std::size_t nao = basis_.num_functions();
  XcSpinResult result;
  result.v_alpha = Matrix(nao, nao);
  result.v_beta = Matrix(nao, nao);

  const bool gga = functional.needs_gradient;
  std::vector<double> pa_phi(nao), pb_phi(nao);

  for (std::size_t g = 0; g < grid_.size(); ++g) {
    const double w = grid_.points()[g].weight;
    const Row r = row(g);
    const PointDensity a = point_density(r, density_alpha, gga, pa_phi.data());
    const PointDensity b = point_density(r, density_beta, gga, pb_phi.data());
    SpinDensity d;
    d.rho_a = a.rho;
    d.rho_b = b.rho;
    if (d.rho() < 1e-12) continue;
    result.integrated_density += w * d.rho();
    d.sigma_aa = a.sigma;
    d.sigma_bb = b.sigma;
    d.sigma_ab = a.dx * b.dx + a.dy * b.dy + a.dz * b.dz;

    const double e = functional.energy_density(d);
    result.energy += w * e;

    // Central-difference potentials over the five variables.
    auto deriv = [&](auto mutate, double scale_hint) {
      const double h = std::max(1e-10, 1e-6 * std::abs(scale_hint));
      SpinDensity dp = d, dm = d;
      mutate(dp, h);
      mutate(dm, -h);
      return (functional.energy_density(dp) - functional.energy_density(dm)) /
             (2.0 * h);
    };
    const double vra =
        deriv([](SpinDensity& s, double h) { s.rho_a += h; }, d.rho());
    const double vrb =
        deriv([](SpinDensity& s, double h) { s.rho_b += h; }, d.rho());
    double vsaa = 0, vsbb = 0, vsab = 0;
    if (gga) {
      const double shint = std::max(1e-8, d.sigma());
      vsaa = deriv([](SpinDensity& s, double h) { s.sigma_aa += h; }, shint);
      vsbb = deriv([](SpinDensity& s, double h) { s.sigma_bb += h; }, shint);
      vsab = deriv([](SpinDensity& s, double h) { s.sigma_ab += h; }, shint);
    }

    // V_a += w [vra phi phi^T + (2 vsaa grad_a + vsab grad_b).(grad(phi)
    // phi^T + phi grad(phi)^T)]; same for beta with labels swapped.
    for (std::size_t mu = 0; mu < r.n; ++mu) {
      const double da = a.dx * r.gx[mu] + a.dy * r.gy[mu] + a.dz * r.gz[mu];
      const double db = b.dx * r.gx[mu] + b.dy * r.gy[mu] + b.dz * r.gz[mu];
      const double ta =
          0.5 * w * vra * r.phi[mu] + w * (2.0 * vsaa * da + vsab * db);
      const double tb =
          0.5 * w * vrb * r.phi[mu] + w * (2.0 * vsbb * db + vsab * da);
      for (std::size_t nu = 0; nu < r.n; ++nu) {
        if (ta != 0.0) {
          result.v_alpha(r.idx[mu], r.idx[nu]) += ta * r.phi[nu];
          result.v_alpha(r.idx[nu], r.idx[mu]) += ta * r.phi[nu];
        }
        if (tb != 0.0) {
          result.v_beta(r.idx[mu], r.idx[nu]) += tb * r.phi[nu];
          result.v_beta(r.idx[nu], r.idx[mu]) += tb * r.phi[nu];
        }
      }
    }
  }
  return result;
}

}  // namespace mthfx::dft
