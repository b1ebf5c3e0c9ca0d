#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/lebedev.hpp"
#include "dft/xc_integrator.hpp"
#include "scf/guess.hpp"
#include "ints/one_electron.hpp"
#include "linalg/eigen.hpp"
#include "obs/trace.hpp"
#include "parallel/reduce.hpp"
#include "parallel/thread_pool.hpp"
#include "scf/rks.hpp"
#include "testing/oracles.hpp"

namespace chem = mthfx::chem;
namespace dft = mthfx::dft;
namespace la = mthfx::linalg;

class LebedevOrders : public ::testing::TestWithParam<int> {};

TEST_P(LebedevOrders, WeightsSumToOne) {
  const auto g = dft::lebedev_grid(GetParam());
  EXPECT_EQ(static_cast<int>(g.size()), GetParam());
  double w = 0.0;
  for (const auto& p : g) w += p.weight;
  EXPECT_NEAR(w, 1.0, 1e-13);
}

TEST_P(LebedevOrders, PointsOnUnitSphere) {
  for (const auto& p : dft::lebedev_grid(GetParam()))
    EXPECT_NEAR(p.x * p.x + p.y * p.y + p.z * p.z, 1.0, 1e-13);
}

TEST_P(LebedevOrders, IntegratesLowHarmonicsExactly) {
  // ∫ Y dΩ / 4π: 1 -> 1, x -> 0, x^2 -> 1/3, xy -> 0, x^4+y^4+z^4 -> 3/5.
  const auto g = dft::lebedev_grid(GetParam());
  double one = 0, xm = 0, x2 = 0, xy = 0, quart = 0;
  for (const auto& p : g) {
    one += p.weight;
    xm += p.weight * p.x;
    x2 += p.weight * p.x * p.x;
    xy += p.weight * p.x * p.y;
    quart += p.weight * (std::pow(p.x, 4) + std::pow(p.y, 4) + std::pow(p.z, 4));
  }
  EXPECT_NEAR(one, 1.0, 1e-13);
  EXPECT_NEAR(xm, 0.0, 1e-13);
  EXPECT_NEAR(x2, 1.0 / 3.0, 1e-13);
  EXPECT_NEAR(xy, 0.0, 1e-13);
  if (GetParam() >= 14) EXPECT_NEAR(quart, 3.0 / 5.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(All, LebedevOrders,
                         ::testing::ValuesIn(dft::kLebedevOrders));

TEST(Lebedev, RejectsUnsupportedOrder) {
  EXPECT_THROW(dft::lebedev_grid(17), std::invalid_argument);
}

TEST(Lebedev, AtLeastSelectsNextOrder) {
  EXPECT_EQ(dft::lebedev_grid_at_least(7).size(), 14u);
  EXPECT_EQ(dft::lebedev_grid_at_least(999).size(), 50u);
}

TEST(Grid, BeckeWeightsPartitionUnity) {
  chem::Molecule m;
  m.add_atom(8, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.8});
  m.add_atom(3, {0, 2.5, 0});
  for (const chem::Vec3 p :
       {chem::Vec3{0.3, 0.3, 0.3}, chem::Vec3{0, 0, 1.0},
        chem::Vec3{-1, 2, 0.5}}) {
    double sum = 0.0;
    for (std::size_t a = 0; a < m.size(); ++a)
      sum += dft::becke_weight(m, a, p);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Grid, IntegratesSingleGaussian) {
  // ∫ exp(-a r^2) = (pi/a)^{3/2}.
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  dft::GridOptions opts;
  opts.radial_points = 60;
  dft::MolecularGrid grid(m, opts);
  const double a = 0.8;
  const double val = grid.integrate([&](const chem::Vec3& p) {
    return std::exp(-a * chem::dot(p, p));
  });
  EXPECT_NEAR(val, std::pow(std::numbers::pi / a, 1.5), 1e-6);
}

TEST(Grid, IntegratesOffCenterGaussianOnMultiAtomGrid) {
  chem::Molecule m;
  m.add_atom(8, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.8});
  dft::GridOptions opts;
  opts.radial_points = 60;
  opts.angular_points = 50;
  dft::MolecularGrid grid(m, opts);
  const chem::Vec3 c{0.0, 0.4, 0.9};
  const double a = 1.3;
  const double val = grid.integrate([&](const chem::Vec3& p) {
    const chem::Vec3 d = p - c;
    return std::exp(-a * chem::dot(d, d));
  });
  // Becke-grid relative accuracy at this resolution is ~1e-4.
  EXPECT_NEAR(val, std::pow(std::numbers::pi / a, 1.5), 1e-3);
}

TEST(Functionals, LdaExchangeClosedForm) {
  // e_x(rho) = -(3/4)(3/pi)^{1/3} rho^{4/3}.
  const double rho = 0.7;
  const double cx = 0.75 * std::cbrt(3.0 / std::numbers::pi);
  EXPECT_NEAR(dft::lda_exchange_energy_density(rho, 0.0),
              -cx * std::pow(rho, 4.0 / 3.0), 1e-14);
  EXPECT_DOUBLE_EQ(dft::lda_exchange_energy_density(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(dft::lda_exchange_energy_density(-1.0, 0.0), 0.0);
}

TEST(Functionals, PbeExchangeReducesToLdaAtZeroGradient) {
  for (double rho : {0.01, 0.3, 1.5, 10.0})
    EXPECT_NEAR(dft::pbe_exchange_energy_density(rho, 0.0),
                dft::lda_exchange_energy_density(rho, 0.0), 1e-13);
}

TEST(Functionals, PbeExchangeEnhancementBounded) {
  // Fx is bounded by 1 + kappa = 1.804 (the Lieb-Oxford-motivated bound).
  const double rho = 0.5;
  const double lda = dft::lda_exchange_energy_density(rho, 0.0);
  for (double sigma : {0.0, 0.1, 10.0, 1e4, 1e8}) {
    const double fx = dft::pbe_exchange_energy_density(rho, sigma) / lda;
    EXPECT_GE(fx, 1.0 - 1e-12);
    EXPECT_LE(fx, 1.804 + 1e-12);
  }
}

TEST(Functionals, PbeCorrelationReducesToPw92AtZeroGradient) {
  for (double rho : {0.05, 0.4, 2.0})
    EXPECT_NEAR(dft::pbe_correlation_energy_density(rho, 0.0),
                dft::pw92_correlation_energy_density(rho, 0.0), 1e-12);
}

TEST(Functionals, CorrelationIsNegative) {
  for (double rho : {0.01, 0.1, 1.0, 5.0}) {
    EXPECT_LT(dft::pw92_correlation_energy_density(rho, 0.0), 0.0);
    EXPECT_LT(dft::pbe_correlation_energy_density(rho, 0.5), 0.0);
  }
}

TEST(Functionals, LargeGradientSuppressesPbeCorrelation) {
  const double rho = 0.3;
  const double c0 = dft::pbe_correlation_energy_density(rho, 0.0);
  const double cbig = dft::pbe_correlation_energy_density(rho, 1e6);
  // H -> -eps_c as t -> inf, so rho(eps_c + H) -> 0^-.
  EXPECT_GT(cbig, c0);
  EXPECT_NEAR(cbig, 0.0, 1e-3);
}

TEST(Functionals, RegistryComposition) {
  const auto pbe0 = dft::make_functional("pbe0");
  EXPECT_DOUBLE_EQ(pbe0.exact_exchange, 0.25);
  EXPECT_TRUE(pbe0.needs_gradient);
  const double rho = 0.6, sigma = 0.2;
  EXPECT_NEAR(pbe0.energy_density(rho, sigma),
              0.75 * dft::pbe_exchange_energy_density(rho, sigma) +
                  dft::pbe_correlation_energy_density(rho, sigma),
              1e-14);
  EXPECT_DOUBLE_EQ(dft::make_functional("hf").energy_density(1.0, 1.0), 0.0);
  EXPECT_THROW(dft::make_functional("b3lyp?"), std::invalid_argument);
}

TEST(XcIntegrator, RecoversElectronCount) {
  const auto m = chem::Molecule::from_xyz(
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 "
      "-0.4692\n");
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix s = mthfx::ints::overlap(basis);
  const la::Matrix x = la::inverse_sqrt(s);
  const la::Matrix p = mthfx::scf::core_guess_density(basis, m, x);

  dft::GridOptions gopts;
  gopts.radial_points = 50;
  gopts.angular_points = 50;
  dft::MolecularGrid grid(m, gopts);
  dft::XcIntegrator xc(basis, grid);
  EXPECT_NEAR(xc.integrate_density(p), 10.0, 5e-3);
}

TEST(XcIntegrator, LdaExchangeOfGaussianDensityClosedForm) {
  // A single normalized s-Gaussian phi, density P=2 |phi><phi| (2 e-):
  // rho = 2 phi^2 = 2 N^2 exp(-2 a r^2),
  // E_x = -Cx ∫ rho^{4/3} = -Cx (2 N^2)^{4/3} (pi / (8a/3))^{3/2}.
  chem::Molecule m;
  m.add_atom(2, {0, 0, 0});
  chem::BasisSet basis;
  const double a = 1.1;
  basis.add_shell(chem::Shell(0, 0, {0, 0, 0}, {a}, {1.0}));
  la::Matrix p(1, 1, {2.0});

  dft::GridOptions gopts;
  gopts.radial_points = 70;
  gopts.angular_points = 26;
  dft::MolecularGrid grid(m, gopts);
  dft::XcIntegrator xc(basis, grid);

  dft::Functional slater{"x", dft::lda_exchange_point, 0.0, false};
  const auto res = xc.integrate(slater, p);

  const double n2 = std::pow(chem::primitive_norm(a, 0, 0, 0), 2);
  const double cx = 0.75 * std::cbrt(3.0 / std::numbers::pi);
  const double eref = -cx * std::pow(2.0 * n2, 4.0 / 3.0) *
                      std::pow(std::numbers::pi / (8.0 * a / 3.0), 1.5);
  EXPECT_NEAR(res.energy, eref, 1e-6);
  EXPECT_NEAR(res.integrated_density, 2.0, 1e-6);
}

TEST(XcIntegrator, GradientMatchesFiniteDifferenceAtFixedDensity) {
  // dE_xc/dR at fixed P against central differences of integrate().energy,
  // with the basis, grid and AO table rebuilt at each displaced geometry:
  // covers the orbital, AO-Hessian (GGA) and Becke-weight terms of
  // gradient() on their own, outside the full KS gradient.
  const auto m = chem::Molecule::from_xyz(
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 "
      "-0.4692\n");
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix s = mthfx::ints::overlap(basis);
  const la::Matrix p =
      mthfx::scf::core_guess_density(basis, m, la::inverse_sqrt(s));

  dft::GridOptions gopts;
  gopts.radial_points = 30;
  gopts.angular_points = 26;
  const auto energy_at = [&](const chem::Molecule& mol,
                             const dft::Functional& f) {
    const auto b = chem::BasisSet::build(mol, "sto-3g");
    const dft::MolecularGrid grid(mol, gopts);
    return dft::XcIntegrator(b, grid).integrate(f, p).energy;
  };

  const double h = 1e-4;
  for (const char* name : {"lda", "pbe"}) {
    const auto f = dft::make_functional(name);
    const dft::MolecularGrid grid(m, gopts);
    const auto g = dft::XcIntegrator(basis, grid).gradient(f, p, m);
    ASSERT_EQ(g.size(), m.size());
    for (std::size_t atom = 0; atom < m.size(); ++atom)
      for (std::size_t dim = 0; dim < 3; ++dim) {
        chem::Molecule mp = m, mm = m;
        chem::Vec3 pos = m.atom(atom).pos;
        pos[dim] += h;
        mp.set_position(atom, pos);
        pos[dim] -= 2 * h;
        mm.set_position(atom, pos);
        const double fd = (energy_at(mp, f) - energy_at(mm, f)) / (2 * h);
        EXPECT_NEAR(g[atom][dim], fd, 1e-7)
            << name << " atom " << atom << " dim " << dim;
      }
  }
}

TEST(XcIntegrator, EmitsXcSpansOnGlobalTrace) {
  const auto m = chem::Molecule::from_xyz(
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 "
      "-0.4692\n");
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = mthfx::scf::core_guess_density(
      basis, m, la::inverse_sqrt(mthfx::ints::overlap(basis)));
  dft::GridOptions gopts;
  gopts.radial_points = 10;
  gopts.angular_points = 6;
  const dft::MolecularGrid grid(m, gopts);
  const dft::XcIntegrator xc(basis, grid);
  const auto f = dft::make_functional("pbe");

  mthfx::obs::Trace& trace = mthfx::obs::global_trace();
  trace.clear();
  trace.set_enabled(true);
  xc.integrate(f, p);
  xc.integrate_spin(dft::make_spin_functional("pbe"), 0.5 * p, 0.5 * p);
  xc.gradient(f, p, m);
  trace.set_enabled(false);
  EXPECT_EQ(trace.count("dft.xc"), 2u);
  EXPECT_EQ(trace.count("dft.xc_grad"), 1u);
  trace.clear();
}

TEST(XcIntegrator, PotentialMatchesEnergyDerivative) {
  // dE/dP_{mu nu} = V_{mu nu} (+ V_{nu mu} off-diagonal): check by finite
  // differences on a random symmetric perturbation of the density.
  const auto m = chem::Molecule::from_xyz(
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 "
      "-0.4692\n");
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix s = mthfx::ints::overlap(basis);
  const la::Matrix x = la::inverse_sqrt(s);
  const la::Matrix p = mthfx::scf::core_guess_density(basis, m, x);

  dft::GridOptions gopts;
  gopts.radial_points = 30;
  gopts.angular_points = 26;
  dft::MolecularGrid grid(m, gopts);
  dft::XcIntegrator xc(basis, grid);
  const auto f = dft::make_functional("pbe");

  const auto base = xc.integrate(f, p);
  const double h = 1e-5;
  for (auto [mu, nu] : {std::pair<std::size_t, std::size_t>{0, 0},
                        {1, 3},
                        {2, 2}}) {
    la::Matrix pp = p;
    pp(mu, nu) += h;
    if (mu != nu) pp(nu, mu) += h;
    const auto plus = xc.integrate(f, pp);
    la::Matrix pm = p;
    pm(mu, nu) -= h;
    if (mu != nu) pm(nu, mu) -= h;
    const auto minus = xc.integrate(f, pm);
    const double fd = (plus.energy - minus.energy) / (2.0 * h);
    const double analytic =
        mu == nu ? base.v(mu, mu) : base.v(mu, nu) + base.v(nu, mu);
    EXPECT_NEAR(fd, analytic, 5e-6) << mu << "," << nu;
  }
}

// ---------------------------------------------------------------------------
// Exact potentials against the central-difference oracle.

namespace {

/// |exact - fd| over the scale of the potential: fd itself, floored by
/// the size e/x that a potential d e/d x of this point has when it does
/// not nearly vanish.
double relative_error(double exact, double fd, double e, double x) {
  const double scale = std::max(std::abs(fd), 1e-3 * std::abs(e / x));
  return std::abs(exact - fd) / scale;
}

/// rho from 1e-10 to 1e3, log-spaced from near the integrator's 1e-12
/// cutoff, and reduced gradients s from 0.01 to 10, as sigma =
/// s^2 (2 kf rho)^2.
std::vector<std::pair<double, double>> closed_shell_points() {
  std::vector<std::pair<double, double>> points;
  for (double lg = -10.0; lg <= 3.0; lg += 0.5) {
    const double rho = std::pow(10.0, lg);
    constexpr double pi = std::numbers::pi;
    const double kf = std::cbrt(3.0 * pi * pi * rho);
    for (double s : {0.01, 0.3, 1.0, 3.0, 10.0})
      points.emplace_back(rho, s * s * 4.0 * kf * kf * rho * rho);
  }
  return points;
}

}  // namespace

TEST(Functionals, ExactPotentialsMatchCentralDifferences) {
  // Exchange and correlation separately: each has a v_sigma of one sign,
  // so no point sits where two nearly cancel.
  // The bounds are about 1e-10 where the oracle is sharp. The PBE forms
  // reach ~1e-6 where the oracle's own rounding dominates: at small s a
  // 1e-6 step in sigma barely moves e, and at large t eps_c and H nearly
  // cancel in e.
  struct Component {
    const char* name;
    dft::XcEvaluator point;
    double (*energy)(double, double);
    double bound;
  };
  const Component components[] = {
      {"slater_x", dft::lda_exchange_point, dft::lda_exchange_energy_density,
       1e-9},
      {"pw92_c", dft::pw92_correlation_point,
       dft::pw92_correlation_energy_density, 1e-9},
      {"pbe_x", dft::pbe_exchange_point, dft::pbe_exchange_energy_density,
       1e-6},
      {"pbe_c", dft::pbe_correlation_point,
       dft::pbe_correlation_energy_density, 2e-6}};
  for (const Component& c : components) {
    double worst = 0.0;
    for (const auto& [rho, sigma] : closed_shell_points()) {
      const dft::XcPoint exact = c.point(rho, sigma);
      const dft::XcPoint fd =
          mthfx::testing::central_difference_xc(c.energy, rho, sigma);
      // One formula: the dual evaluation's value is the energy.
      EXPECT_DOUBLE_EQ(exact.e, fd.e) << c.name << " rho " << rho;
      worst = std::max({worst, relative_error(exact.vrho, fd.vrho, fd.e, rho),
                        relative_error(exact.vsigma, fd.vsigma, fd.e, sigma)});
      EXPECT_TRUE(std::isfinite(exact.vrho) && std::isfinite(exact.vsigma))
          << c.name << " rho " << rho << " sigma " << sigma;
    }
    EXPECT_LT(worst, c.bound) << c.name;
  }
}

TEST(Functionals, RegistryPotentialsAreTheSumOfComponents) {
  for (const auto& [rho, sigma] : closed_shell_points()) {
    const dft::XcPoint x = dft::pbe_exchange_point(rho, sigma);
    const dft::XcPoint c = dft::pbe_correlation_point(rho, sigma);
    const dft::XcPoint pbe0 = dft::make_functional("pbe0").evaluate(rho, sigma);
    EXPECT_DOUBLE_EQ(pbe0.vrho, 0.75 * x.vrho + c.vrho);
    EXPECT_NEAR(pbe0.vsigma, 0.75 * x.vsigma + c.vsigma,
                1e-14 * std::abs(x.vsigma));
    const dft::XcPoint lda = dft::make_functional("lda").evaluate(rho, sigma);
    EXPECT_EQ(lda.vsigma, 0.0);
    EXPECT_DOUBLE_EQ(lda.vrho,
                     dft::lda_exchange_point(rho, sigma).vrho +
                         dft::pw92_correlation_point(rho, sigma).vrho);
  }
}

// ---------------------------------------------------------------------------
// Thread count is invisible: the point chunks and their merge tree depend
// on the grid alone.

TEST(XcThreads, IntegratorBitIdenticalAcrossThreadCounts) {
  const auto m = chem::Molecule::from_xyz(
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 "
      "-0.4692\n");
  const auto basis = chem::BasisSet::build(m, "6-31g");
  const la::Matrix p = mthfx::scf::core_guess_density(
      basis, m, la::inverse_sqrt(mthfx::ints::overlap(basis)));
  la::Matrix pb = 0.4 * p;
  pb(0, 1) += 0.01;
  pb(1, 0) += 0.01;
  dft::GridOptions gopts;
  gopts.radial_points = 20;
  gopts.angular_points = 26;
  const dft::MolecularGrid grid(m, gopts);
  const dft::XcIntegrator xc(basis, grid);
  EXPECT_GT(xc.num_chunks(), 1u);
  EXPECT_LE(xc.num_chunks(), mthfx::parallel::kMaxChunks);
  const auto f = dft::make_functional("pbe0");
  const auto fs = dft::make_spin_functional("pbe0");

  const auto ref = xc.integrate(f, p);
  const auto ref_spin = xc.integrate_spin(fs, 0.6 * p, pb);
  const auto ref_grad = xc.gradient(f, p, m);
  for (std::size_t threads : {1, 2, 4, 8}) {
    mthfx::parallel::ThreadPool pool(threads);
    const auto r = xc.integrate(f, p, &pool);
    EXPECT_EQ(r.energy, ref.energy) << threads;
    EXPECT_EQ(r.integrated_density, ref.integrated_density) << threads;
    EXPECT_EQ(r.v, ref.v) << threads;
    const auto s = xc.integrate_spin(fs, 0.6 * p, pb, &pool);
    EXPECT_EQ(s.energy, ref_spin.energy) << threads;
    EXPECT_EQ(s.v_alpha, ref_spin.v_alpha) << threads;
    EXPECT_EQ(s.v_beta, ref_spin.v_beta) << threads;
    const auto g = xc.gradient(f, p, m, &pool);
    ASSERT_EQ(g.size(), ref_grad.size());
    for (std::size_t a = 0; a < g.size(); ++a)
      EXPECT_EQ(g[a], ref_grad[a]) << threads << " atom " << a;
  }
}

TEST(XcThreads, KsEnergiesBitIdenticalAcrossThreadCounts) {
  const auto m = chem::Molecule::from_xyz(
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 "
      "-0.4692\n");
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  mthfx::scf::KsOptions opts;
  opts.functional = "pbe0";
  opts.grid.radial_points = 25;
  opts.grid.angular_points = 26;
  opts.scf.hfx.num_threads = 1;
  const auto ref = mthfx::scf::rks(m, basis, opts);
  ASSERT_TRUE(ref.scf.converged);
  for (std::size_t threads : {2, 4, 8}) {
    opts.scf.hfx.num_threads = threads;
    const auto r = mthfx::scf::rks(m, basis, opts);
    EXPECT_EQ(r.scf.energy, ref.scf.energy) << threads;
    EXPECT_EQ(r.xc_energy, ref.xc_energy) << threads;
    EXPECT_EQ(r.scf.density, ref.scf.density) << threads;
  }
}
