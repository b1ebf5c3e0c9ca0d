#include <gtest/gtest.h>

#include <cmath>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "ints/one_electron.hpp"
#include "linalg/eigen.hpp"
#include "scf/guess.hpp"
#include "scf/rhf.hpp"
#include "scf/rks.hpp"

namespace chem = mthfx::chem;
namespace la = mthfx::linalg;
namespace scf = mthfx::scf;

namespace {

chem::Molecule h2(double r = 1.4) {
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, r});
  return m;
}

chem::Molecule water() {
  return chem::Molecule::from_xyz(
      "3\nwater\nO 0.000000 0.000000 0.117300\n"
      "H 0.000000 0.757200 -0.469200\n"
      "H 0.000000 -0.757200 -0.469200\n");
}

}  // namespace

TEST(Guess, DensityTracesToElectronCount) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix s = mthfx::ints::overlap(basis);
  const la::Matrix x = la::inverse_sqrt(s);
  const la::Matrix p = scf::core_guess_density(basis, m, x);
  // tr(P S) = N_electrons.
  EXPECT_NEAR(la::trace_product(p, s), 10.0, 1e-9);
}

TEST(Guess, RejectsOddElectronCount) {
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix x =
      la::inverse_sqrt(mthfx::ints::overlap(basis));
  EXPECT_THROW(scf::core_guess_density(basis, m, x), std::invalid_argument);
}

// RHF/STO-3G total energy for H2 at R = 1.4 a0 (Szabo-Ostlund report
// -1.1167; the value to 7 digits, -1.1167143, is confirmed here by an
// independent closed-form s-Gaussian derivation with EMSL exponents).
TEST(Rhf, H2Sto3gTotalEnergy) {
  const auto m = h2();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto result = scf::rhf(m, basis);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.energy, -1.1167143, 2e-6);
}

// Published RHF/STO-3G water energy -74.9420798986 Ha at the standard
// Crawford-project geometry (coordinates in bohr).
TEST(Rhf, WaterSto3gTotalEnergyCrawfordGeometry) {
  chem::Molecule m;
  m.add_atom(8, {0.000000000000, 0.000000000000, -0.143225816552});
  m.add_atom(1, {0.000000000000, 1.638036840407, 1.136548822547});
  m.add_atom(1, {0.000000000000, -1.638036840407, 1.136548822547});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto result = scf::rhf(m, basis);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.energy, -74.9420798986, 5e-5);
}

// At the near-experimental geometry STO-3G water sits near -74.963 Ha.
TEST(Rhf, WaterSto3gExperimentalGeometry) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto result = scf::rhf(m, basis);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.energy, -74.963, 2e-3);
}

TEST(Rhf, HeHPlusCation) {
  // HeH+ at 1.4632 a0, STO-3G: E ~ -2.841 Ha (Szabo-Ostlund ch. 3).
  chem::Molecule m;
  m.add_atom(2, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.4632});
  m.set_charge(1);
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto result = scf::rhf(m, basis);
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.energy, -2.841, 5e-3);
}

TEST(Rhf, EnergyComponentsAreConsistent) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto r = scf::rhf(m, basis);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.energy,
              r.one_electron_energy + r.coulomb_energy + r.exchange_energy +
                  r.nuclear_repulsion,
              1e-10);
  EXPECT_LT(r.one_electron_energy, 0.0);
  EXPECT_GT(r.coulomb_energy, 0.0);
  EXPECT_LT(r.exchange_energy, 0.0);
}

TEST(Rhf, NonConvergedResultStillPopulatesEnergyComponents) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::ScfOptions opts;
  opts.max_iterations = 1;  // force converged=false
  const auto r = scf::rhf(m, basis, opts);
  ASSERT_FALSE(r.converged);
  EXPECT_NEAR(r.energy,
              r.one_electron_energy + r.coulomb_energy + r.exchange_energy +
                  r.nuclear_repulsion,
              1e-10);
  EXPECT_LT(r.one_electron_energy, 0.0);
  EXPECT_GT(r.coulomb_energy, 0.0);
}

TEST(Rhf, SplitValenceLowersEnergyVariationally) {
  const auto m = water();
  const auto e_min = scf::rhf(m, chem::BasisSet::build(m, "sto-3g"));
  const auto e_dz = scf::rhf(m, chem::BasisSet::build(m, "6-31g"));
  const auto e_dzp = scf::rhf(m, chem::BasisSet::build(m, "6-31g*"));
  ASSERT_TRUE(e_min.converged && e_dz.converged && e_dzp.converged);
  EXPECT_LT(e_dz.energy, e_min.energy);
  EXPECT_LT(e_dzp.energy, e_dz.energy);
  // 6-31G water RHF is about -75.98 Ha.
  EXPECT_NEAR(e_dz.energy, -75.98, 0.05);
}

TEST(Rhf, IncrementalFockMatchesFullRebuild) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::ScfOptions inc;
  inc.incremental_fock = true;
  scf::ScfOptions full;
  full.incremental_fock = false;
  const auto r1 = scf::rhf(m, basis, inc);
  const auto r2 = scf::rhf(m, basis, full);
  ASSERT_TRUE(r1.converged && r2.converged);
  EXPECT_NEAR(r1.energy, r2.energy, 1e-8);
}

TEST(Rhf, IncrementalConvergenceIsDecidedOnFullBuilds) {
  // Accumulated DP screening error makes the incremental energy walk at
  // the eps_schwarz noise scale, far above a tight energy_tolerance.
  // Convergence must not depend on where that walk happens to land:
  // once the DIIS error is converged the driver switches to full
  // builds, so the verdict (and the reported energy) comes from
  // noise-free deltas. Before the switch existed this configuration
  // stalled for all 100 iterations with the energy drifted ~1e-7 off
  // the full-build answer.
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "6-31g");
  scf::ScfOptions inc;
  inc.incremental_fock = true;
  inc.full_rebuild_every = 1000;  // schedule never resets the drift
  inc.hfx.eps_schwarz = 1e-9;
  inc.energy_tolerance = 1e-12;
  scf::ScfOptions full = inc;
  full.incremental_fock = false;
  const auto r_inc = scf::rhf(m, basis, inc);
  const auto r_full = scf::rhf(m, basis, full);
  ASSERT_TRUE(r_inc.converged);
  ASSERT_TRUE(r_full.converged);
  EXPECT_NEAR(r_inc.energy, r_full.energy, 1e-10);
}

TEST(Rhf, IncrementalFockShrinksLateIterationWork) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "6-31g");
  scf::ScfOptions opts;
  opts.incremental_fock = true;
  opts.hfx.eps_schwarz = 1e-9;
  const auto r = scf::rhf(m, basis, opts);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.log.size(), 3u);
  // Quartet work in a late (incremental) iteration is below the first
  // full build: density screening bites on the small ΔP.
  EXPECT_LT(r.log[r.log.size() - 2].quartets_computed,
            r.log[0].quartets_computed);
}

TEST(Rhf, DiisAcceleratesConvergence) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "6-31g");
  scf::ScfOptions with;
  with.use_diis = true;
  scf::ScfOptions without;
  without.use_diis = false;
  without.max_iterations = 300;
  const auto r1 = scf::rhf(m, basis, with);
  const auto r2 = scf::rhf(m, basis, without);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r1.iterations, r2.iterations);
  EXPECT_NEAR(r1.energy, r2.energy, 1e-7);
}

TEST(Rhf, HomoLumoGapPositiveForClosedShell) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto r = scf::rhf(m, basis);
  EXPECT_GT(scf::homo_lumo_gap(r, m), 0.1);
}

TEST(Rks, HfFunctionalReproducesRhf) {
  // One SCF loop serves both: rks("hf") is rhf with full J/K builds,
  // bit for bit (single thread, so the builds are deterministic).
  const auto m = h2();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::ScfOptions rhf_opts;
  rhf_opts.hfx.num_threads = 1;
  rhf_opts.incremental_fock = false;
  const auto rhf_result = scf::rhf(m, basis, rhf_opts);
  scf::KsOptions opts;
  opts.functional = "hf";
  opts.scf.hfx.num_threads = 1;
  const auto ks = scf::rks(m, basis, opts);
  ASSERT_TRUE(ks.scf.converged);
  EXPECT_EQ(ks.scf.energy, rhf_result.energy);
  EXPECT_EQ(ks.scf.density, rhf_result.density);
}

TEST(Rks, LdaWaterEnergyInPhysicalRange) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::KsOptions opts;
  opts.functional = "lda";
  opts.grid.radial_points = 40;
  const auto ks = scf::rks(m, basis, opts);
  ASSERT_TRUE(ks.scf.converged);
  // LDA total energy near RHF but distinct; grid recovers N = 10.
  EXPECT_NEAR(ks.scf.energy, -74.7, 0.4);
  EXPECT_NEAR(ks.integrated_density, 10.0, 5e-3);
}

TEST(Rks, Pbe0MixesExactExchange) {
  const auto m = h2();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::KsOptions opts;
  opts.functional = "pbe0";
  const auto ks = scf::rks(m, basis, opts);
  ASSERT_TRUE(ks.scf.converged);
  EXPECT_LT(ks.exact_exchange_energy, 0.0);
  EXPECT_LT(ks.xc_energy, 0.0);
  // PBE0 H2 energy is within ~0.1 Ha of the HF value in this tiny basis.
  EXPECT_NEAR(ks.scf.energy, -1.15, 0.08);
}

TEST(Rks, PbeVsPbe0Differ) {
  const auto m = h2();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::KsOptions pbe;
  pbe.functional = "pbe";
  scf::KsOptions pbe0;
  pbe0.functional = "pbe0";
  const auto r1 = scf::rks(m, basis, pbe);
  const auto r2 = scf::rks(m, basis, pbe0);
  ASSERT_TRUE(r1.scf.converged && r2.scf.converged);
  EXPECT_GT(std::abs(r1.scf.energy - r2.scf.energy), 1e-4);
  // The hybrid opens the HOMO-LUMO gap relative to the pure GGA — the
  // physics the paper needs for electrolyte stability predictions.
  const auto m2 = h2();
  EXPECT_GT(scf::homo_lumo_gap(r2.scf, m2), scf::homo_lumo_gap(r1.scf, m2));
}

TEST(Rks, UnknownFunctionalThrows) {
  const auto m = h2();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::KsOptions opts;
  opts.functional = "m06-2x";
  EXPECT_THROW(scf::rks(m, basis, opts), std::invalid_argument);
}
