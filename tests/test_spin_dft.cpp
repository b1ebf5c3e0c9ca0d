#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "chem/basis.hpp"
#include "dft/functionals.hpp"
#include "dft/spin_functionals.hpp"
#include "scf/rks.hpp"
#include "scf/uhf.hpp"
#include "scf/uks.hpp"
#include "testing/oracles.hpp"
#include "workload/geometries.hpp"

namespace chem = mthfx::chem;
namespace dft = mthfx::dft;
namespace scf = mthfx::scf;
namespace wl = mthfx::workload;

namespace {

dft::SpinDensity unpolarized(double rho, double sigma) {
  dft::SpinDensity d;
  d.rho_a = d.rho_b = 0.5 * rho;
  d.sigma_aa = d.sigma_bb = d.sigma_ab = 0.25 * sigma;
  return d;
}

}  // namespace

class SpinReduction
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SpinReduction, UnpolarizedLimitsMatchClosedShellForms) {
  const auto [rho, sigma] = GetParam();
  const auto d = unpolarized(rho, sigma);
  EXPECT_NEAR(dft::lsda_exchange_energy_density(d),
              dft::lda_exchange_energy_density(rho, sigma), 1e-12);
  EXPECT_NEAR(dft::pw92_correlation_energy_density_spin(d),
              dft::pw92_correlation_energy_density(rho, sigma), 1e-10);
  EXPECT_NEAR(dft::pbe_exchange_energy_density_spin(d),
              dft::pbe_exchange_energy_density(rho, sigma), 1e-12);
  EXPECT_NEAR(dft::pbe_correlation_energy_density_spin(d),
              dft::pbe_correlation_energy_density(rho, sigma), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Densities, SpinReduction,
    ::testing::Combine(::testing::Values(0.01, 0.2, 1.0, 6.0),
                       ::testing::Values(0.0, 0.05, 1.0, 50.0)));

TEST(SpinFunctionals, FullyPolarizedExchangeScaling) {
  // e_x(rho, zeta=1) = 2^{1/3} e_x^unpol(rho) for LSDA.
  dft::SpinDensity d;
  d.rho_a = 0.7;
  d.rho_b = 0.0;
  EXPECT_NEAR(dft::lsda_exchange_energy_density(d),
              std::cbrt(2.0) * dft::lda_exchange_energy_density(0.7, 0.0),
              1e-12);
}

TEST(SpinFunctionals, PolarizedCorrelationWeakerThanUnpolarized) {
  // |e_c| decreases with polarization at fixed rs (parallel spins
  // avoid each other already via exchange).
  for (double rs : {0.5, 2.0, 10.0}) {
    const double e0 = dft::pw92_eps_c_spin(rs, 0.0);
    const double e1 = dft::pw92_eps_c_spin(rs, 1.0);
    EXPECT_LT(e0, e1);  // both negative; polarized is less negative
    EXPECT_LT(e1, 0.0);
  }
}

TEST(SpinFunctionals, Pw92KnownValues) {
  // PW92 parametrization values: eps_c(rs=2, zeta=0) = -0.04476 Ha,
  // eps_c(rs=2, zeta=1) = -0.02392 Ha.
  EXPECT_NEAR(dft::pw92_eps_c_spin(2.0, 0.0), -0.04476, 2e-4);
  EXPECT_NEAR(dft::pw92_eps_c_spin(2.0, 1.0), -0.02392, 2e-4);
}

TEST(SpinFunctionals, ZetaSymmetry) {
  // e(zeta) = e(-zeta).
  dft::SpinDensity d1, d2;
  d1.rho_a = 0.6;
  d1.rho_b = 0.2;
  d2.rho_a = 0.2;
  d2.rho_b = 0.6;
  EXPECT_NEAR(dft::lsda_exchange_energy_density(d1),
              dft::lsda_exchange_energy_density(d2), 1e-14);
  EXPECT_NEAR(dft::pw92_correlation_energy_density_spin(d1),
              dft::pw92_correlation_energy_density_spin(d2), 1e-12);
}

TEST(SpinFunctionals, RegistryMatchesClosedShellRegistry) {
  const auto up = dft::make_spin_functional("pbe0");
  EXPECT_DOUBLE_EQ(up.exact_exchange, 0.25);
  EXPECT_THROW(dft::make_spin_functional("scan"), std::invalid_argument);
}

TEST(SpinFunctionals, ExactPotentialsMatchCentralDifferences) {
  // All five partials of each spin component, exchange and correlation
  // separately, against the central-difference oracle over rho from 1e-10
  // to 1e3, zeta up to 1 -+ 1e-4 and reduced gradients s from 0.1 to 3.
  // The oracle's steps are relative to each variable, so near zeta = +-1
  // the minority spin's step barely moves e and the oracle's rounding
  // sets the bounds: ~1e-7 for the exchange forms and PW92, and up to
  // ~4e-5 for PBE correlation at s = 3, where eps_c and H also nearly
  // cancel. A wrong derivative shows up at O(1).
  struct Component {
    const char* name;
    dft::SpinXcEvaluator point;
    double (*energy)(const dft::SpinDensity&);
    double bound;
  };
  const Component components[] = {
      {"lsda_x", dft::lsda_exchange_point, dft::lsda_exchange_energy_density,
       1e-6},
      {"pw92_c", dft::pw92_correlation_point_spin,
       dft::pw92_correlation_energy_density_spin, 2e-6},
      {"pbe_x", dft::pbe_exchange_point_spin,
       dft::pbe_exchange_energy_density_spin, 1e-6},
      {"pbe_c", dft::pbe_correlation_point_spin,
       dft::pbe_correlation_energy_density_spin, 1e-4}};

  // |exact - fd| over fd, floored by the size e/x of a potential d e/d x
  // that does not nearly vanish.
  const auto rel = [](double exact, double fd, double e, double x) {
    const double scale = std::max(std::abs(fd), 1e-3 * std::abs(e / x));
    return std::abs(exact - fd) / scale;
  };
  const double edge = 1.0 - 1e-4;
  for (const Component& c : components) {
    double worst = 0.0;
    for (double lg = -10.0; lg <= 3.0; lg += 1.0) {
      const double rho = std::pow(10.0, lg);
      for (double zeta : {-edge, -0.5, 0.0, 0.3, 0.9, edge}) {
        for (double s : {0.1, 1.0, 3.0}) {
          dft::SpinDensity d;
          d.rho_a = 0.5 * rho * (1.0 + zeta);
          d.rho_b = 0.5 * rho * (1.0 - zeta);
          // |grad rho_x| = s 2 kf(2 rho_x) rho_x along two fixed directions.
          const auto grad = [&](double r) {
            return s * 2.0 * r *
                   std::cbrt(3.0 * std::numbers::pi * std::numbers::pi * 2 * r);
          };
          const double ga = grad(d.rho_a), gb = grad(d.rho_b);
          const double cos_ab = 0.6;  // angle between the two gradients
          d.sigma_aa = ga * ga;
          d.sigma_bb = gb * gb;
          d.sigma_ab = cos_ab * ga * gb;

          const dft::SpinXcPoint x = c.point(d);
          const dft::SpinXcPoint fd =
              mthfx::testing::central_difference_spin_xc(c.energy, d);
          EXPECT_DOUBLE_EQ(x.e, fd.e) << c.name;
          const double v[5][2] = {{x.vrho_a, fd.vrho_a},
                                  {x.vrho_b, fd.vrho_b},
                                  {x.vsigma_aa, fd.vsigma_aa},
                                  {x.vsigma_ab, fd.vsigma_ab},
                                  {x.vsigma_bb, fd.vsigma_bb}};
          const double var[5] = {d.rho_a, d.rho_b, d.sigma_aa, d.sigma_ab,
                                 d.sigma_bb};
          for (int k = 0; k < 5; ++k) {
            ASSERT_TRUE(std::isfinite(v[k][0]))
                << c.name << " partial " << k << " rho " << rho << " zeta "
                << zeta;
            worst = std::max(worst, rel(v[k][0], v[k][1], fd.e, var[k]));
          }
        }
      }
    }
    EXPECT_LT(worst, c.bound) << c.name;
  }
}

TEST(SpinFunctionals, FullyPolarizedPotentialsAreFinite) {
  // rho_b = 0 exactly (a one-electron atom): the beta potentials are the
  // derivatives at the zeta = 1 edge, finite for every registry entry.
  dft::SpinDensity d;
  d.rho_a = 0.3;
  d.sigma_aa = 0.05;
  for (const char* name : {"lda", "pbe", "pbe0"}) {
    const dft::SpinXcPoint x = dft::make_spin_functional(name).evaluate(d);
    for (double v : {x.e, x.vrho_a, x.vrho_b, x.vsigma_aa, x.vsigma_ab,
                     x.vsigma_bb})
      EXPECT_TRUE(std::isfinite(v)) << name;
  }
}

TEST(Uks, ClosedShellSingletMatchesRks) {
  const auto m = wl::h2();
  const auto basis = chem::BasisSet::build(m, "sto-3g");

  scf::KsOptions rks_opts;
  rks_opts.functional = "pbe";
  rks_opts.grid.radial_points = 30;
  rks_opts.grid.angular_points = 26;
  const auto r = scf::rks(m, basis, rks_opts);

  scf::UksOptions uks_opts;
  uks_opts.functional = "pbe";
  uks_opts.grid.radial_points = 30;
  uks_opts.grid.angular_points = 26;
  const auto u = scf::uks(m, basis, 1, uks_opts);

  ASSERT_TRUE(r.scf.converged && u.scf.converged);
  EXPECT_NEAR(u.scf.energy, r.scf.energy, 1e-6);
}

TEST(Uks, HfFunctionalMatchesUhf) {
  chem::Molecule m;
  m.add_atom(3, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  // One SCF loop serves both: bit for bit on a single thread.
  scf::UhfOptions uhf_opts;
  uhf_opts.hfx.num_threads = 1;
  const auto u1 = scf::uhf(m, basis, 2, uhf_opts);
  scf::UksOptions opts;
  opts.functional = "hf";
  opts.scf.hfx.num_threads = 1;
  const auto u2 = scf::uks(m, basis, 2, opts);
  ASSERT_TRUE(u1.converged && u2.scf.converged);
  EXPECT_EQ(u2.scf.energy, u1.energy);
  EXPECT_EQ(u2.scf.density_alpha, u1.density_alpha);
  EXPECT_EQ(u2.scf.density_beta, u1.density_beta);
}

TEST(Uks, Pbe0EnergyBitIdenticalAcrossThreadCounts) {
  // XC (point chunks) and J/K (task chunks) both merge along fixed trees.
  chem::Molecule m;
  m.add_atom(3, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::UksOptions opts;
  opts.functional = "pbe0";
  opts.grid.radial_points = 35;
  opts.scf.hfx.num_threads = 1;
  const auto ref = scf::uks(m, basis, 2, opts);
  ASSERT_TRUE(ref.scf.converged);
  for (std::size_t threads : {2, 4, 8}) {
    opts.scf.hfx.num_threads = threads;
    const auto r = scf::uks(m, basis, 2, opts);
    EXPECT_EQ(r.scf.energy, ref.scf.energy) << threads;
    EXPECT_EQ(r.xc_energy, ref.xc_energy) << threads;
  }
}

TEST(Uks, HydrogenAtomLsdaEnergyReasonable) {
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::UksOptions opts;
  opts.functional = "lda";
  opts.grid.radial_points = 50;
  const auto r = scf::uks(m, basis, 2, opts);
  ASSERT_TRUE(r.scf.converged);
  // LSDA H atom (complete basis) is about -0.479 Ha; STO-3G sits higher.
  EXPECT_NEAR(r.scf.energy, -0.45, 0.05);
  EXPECT_NEAR(r.integrated_density, 1.0, 1e-4);
}

TEST(Uks, Pbe0DoubletLithiumConverges) {
  chem::Molecule m;
  m.add_atom(3, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::UksOptions opts;
  opts.functional = "pbe0";
  opts.grid.radial_points = 35;
  const auto r = scf::uks(m, basis, 2, opts);
  ASSERT_TRUE(r.scf.converged);
  EXPECT_LT(r.exact_exchange_energy, 0.0);
  EXPECT_LT(r.xc_energy, 0.0);
  // A doublet: <S^2> = S(S+1) = 0.75 up to spin contamination.
  EXPECT_NEAR(r.scf.s_squared, 0.75, 1e-3);
  // Near the UHF value but with correlation pulling it below.
  const auto u = scf::uhf(m, basis, 2);
  EXPECT_LT(r.scf.energy, u.energy);
}

TEST(Uks, LithiumSuperoxideAnionPbe0SingletConverges) {
  // A hard open-shell start: from the core-Hamiltonian guess this solve
  // does not converge in the default 200 iterations. From SAD it reaches
  // the closed-shell singlet.
  const auto m = wl::lithium_superoxide_anion();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto r = scf::uks(m, basis, 1);
  ASSERT_TRUE(r.scf.converged);
  EXPECT_NEAR(r.scf.s_squared, 0.0, 1e-6);
}

TEST(Uks, SpinDensityPositiveAtRadicalSite) {
  // Li doublet: alpha excess resides on the atom. PBE0 is used — pure
  // LSDA on this atom limit-cycles between degenerate 2p directions, a
  // known minimal-basis pathology the hybrid lifts.
  chem::Molecule m;
  m.add_atom(3, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::UksOptions opts;
  opts.functional = "pbe0";
  opts.grid.radial_points = 35;
  const auto r = scf::uks(m, basis, 2, opts);
  ASSERT_TRUE(r.scf.converged);
  const auto spin = r.scf.spin_density();
  EXPECT_GT(mthfx::linalg::trace(spin), 0.0);
}

TEST(Uhf, LevelShiftPreservesFixedPoint) {
  // A level shift must not move the converged solution.
  const auto m = wl::h2();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::UhfOptions plain;
  scf::UhfOptions shifted;
  shifted.level_shift = 0.5;
  const auto r1 = scf::uhf(m, basis, 1, plain);
  const auto r2 = scf::uhf(m, basis, 1, shifted);
  ASSERT_TRUE(r1.converged && r2.converged);
  EXPECT_NEAR(r1.energy, r2.energy, 1e-7);
}
