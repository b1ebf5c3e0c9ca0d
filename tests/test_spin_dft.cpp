#include <gtest/gtest.h>

#include <cmath>

#include "chem/basis.hpp"
#include "dft/functionals.hpp"
#include "dft/spin_functionals.hpp"
#include "scf/rks.hpp"
#include "scf/uhf.hpp"
#include "scf/uks.hpp"
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
