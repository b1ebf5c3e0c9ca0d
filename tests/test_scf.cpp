#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chem/basis.hpp"
#include "chem/elements.hpp"
#include "chem/molecule.hpp"
#include "ints/one_electron.hpp"
#include "linalg/eigen.hpp"
#include "obs/trace.hpp"
#include "scf/guess.hpp"
#include "scf/rhf.hpp"
#include "scf/rks.hpp"
#include "scf/sparse_scf.hpp"
#include "scf/uhf.hpp"
#include "scf/uks.hpp"
#include "workload/geometries.hpp"

namespace chem = mthfx::chem;
namespace la = mthfx::linalg;
namespace scf = mthfx::scf;
namespace wl = mthfx::workload;

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
  // A ΔP iteration computes fewer quartets than a full build: density
  // screening bites on the small ΔP. The last iteration is a full build
  // (the endgame rule); iteration 0 is not a reference, because the
  // block-diagonal SAD density already lets screening drop quartets.
  std::uint64_t fewest = r.log[1].quartets_computed;
  for (std::size_t i = 2; i + 1 < r.log.size(); ++i)
    fewest = std::min(fewest, r.log[i].quartets_computed);
  EXPECT_LT(fewest, r.log.back().quartets_computed);
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

TEST(Guess, EveryBundledAtomConverges) {
  // The atomic UHF solves behind SAD, for every element each bundled
  // basis tabulates.
  std::size_t solved = 0;
  for (const char* name : {"sto-3g", "6-31g", "6-31g*"})
    for (int z = 1; z <= chem::kMaxZ; ++z) {
      chem::Molecule atom;
      atom.add_atom(z, {0, 0, 0});
      chem::BasisSet basis;
      try {
        basis = chem::BasisSet::build(atom, name);
      } catch (const std::runtime_error&) {
        continue;  // element not in this basis
      }
      const auto a = scf::atomic_density(z, basis.shells());
      const std::string where = std::string(name) + " Z=" + std::to_string(z);
      EXPECT_TRUE(a->converged) << where;
      EXPECT_NEAR(la::trace_product(a->density, mthfx::ints::overlap(basis)),
                  z, 1e-10)
          << where;
      ++solved;
    }
  // H..Ar in STO-3G; H, Li, C, N and O in 6-31G and 6-31G*.
  EXPECT_EQ(solved, 18u + 5u + 5u);
}

TEST(Guess, SadDensityIsNeutralAtomsBlockDiagonal) {
  // OH- with a polarization shell: the guess holds the neutral atoms'
  // electrons whatever the charge, and no density between atoms.
  const auto m = wl::hydroxide();
  const auto basis = chem::BasisSet::build(m, "6-31g*");
  const la::Matrix p = scf::sad_guess_density(basis, m);
  const la::Matrix s = mthfx::ints::overlap(basis);
  EXPECT_NEAR(la::trace_product(p, s), 9.0, 1e-10);
  for (std::size_t a = 0; a < basis.num_shells(); ++a)
    for (std::size_t b = 0; b < basis.num_shells(); ++b)
      for (std::size_t i = 0; i < basis.shell(a).num_functions(); ++i)
        for (std::size_t j = 0; j < basis.shell(b).num_functions(); ++j) {
          const std::size_t mu = basis.first_function(a) + i;
          const std::size_t nu = basis.first_function(b) + j;
          EXPECT_EQ(p(mu, nu), p(nu, mu));
          if (basis.shell(a).atom_index() != basis.shell(b).atom_index()) {
            EXPECT_EQ(p(mu, nu), 0.0);
          }
        }
  const la::Matrix again = scf::sad_guess_density(basis, m);
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (std::size_t j = 0; j < p.cols(); ++j) EXPECT_EQ(again(i, j), p(i, j));
}

TEST(Guess, SadCacheIsThreadSafe) {
  // Exponents scaled off every bundled basis, so no earlier test has
  // filled these cache entries.
  const auto m = wl::dmso();
  const auto bundled = chem::BasisSet::build(m, "sto-3g");
  chem::BasisSet basis;
  for (const chem::Shell& sh : bundled.shells()) {
    std::vector<double> exps = sh.exponents(), coefs(sh.num_primitives());
    for (double& e : exps) e *= 1.03;
    for (std::size_t p = 0; p < coefs.size(); ++p) coefs[p] = sh.coef(p);
    basis.add_shell(chem::Shell(sh.l(), sh.atom_index(), sh.center(),
                                std::move(exps), std::move(coefs)));
  }
  std::vector<la::Matrix> results(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t)
    threads.emplace_back(
        [&, t] { results[t] = scf::sad_guess_density(basis, m); });
  for (std::thread& t : threads) t.join();
  const la::Matrix serial = scf::sad_guess_density(basis, m);
  EXPECT_NEAR(la::trace_product(serial, mthfx::ints::overlap(basis)), 42.0,
              1e-10);
  for (const la::Matrix& r : results)
    for (std::size_t i = 0; i < serial.rows(); ++i)
      for (std::size_t j = 0; j < serial.cols(); ++j)
        ASSERT_EQ(r(i, j), serial(i, j));
}

TEST(Guess, SadAndCoreGuessReachTheSameState) {
  // The E6 screening settings; SAD must reach the core guess's state in
  // fewer iterations.
  scf::KsOptions opts;
  opts.functional = "pbe0";
  opts.scf.hfx.num_threads = 2;
  opts.scf.hfx.eps_schwarz = 1e-9;
  opts.scf.energy_tolerance = 1e-8;
  opts.scf.diis_tolerance = 1e-5;
  opts.grid.radial_points = 25;
  opts.grid.angular_points = 26;
  for (const char* name : {"li2o2", "dmso", "pc"}) {
    const auto m = wl::by_name(name);
    const auto basis = chem::BasisSet::build(m, "sto-3g");
    const auto sad = scf::rks(m, basis, opts);
    scf::KsOptions core = opts;
    core.scf.initial_density = std::make_shared<la::Matrix>(
        scf::core_guess_density(basis, m,
                                la::inverse_sqrt(mthfx::ints::overlap(basis))));
    const auto from_core = scf::rks(m, basis, core);
    ASSERT_TRUE(sad.scf.converged) << name;
    ASSERT_TRUE(from_core.scf.converged) << name;
    EXPECT_NEAR(sad.scf.energy, from_core.scf.energy, 1e-8) << name;
    EXPECT_LT(sad.scf.iterations, from_core.scf.iterations) << name;
  }
}

TEST(Guess, EveryDriverOpensOneGuessSpan) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::ScfOptions rhf_opts;
  rhf_opts.hfx.num_threads = 1;
  scf::KsOptions ks_opts;
  ks_opts.scf = rhf_opts;
  ks_opts.grid.radial_points = 10;
  ks_opts.grid.angular_points = 6;
  scf::UhfOptions uhf_opts;
  uhf_opts.hfx.num_threads = 1;
  scf::UksOptions uks_opts;
  uks_opts.scf = uhf_opts;
  uks_opts.grid = ks_opts.grid;
  scf::sad_guess_density(basis, m);  // atomic solves outside the trace

  mthfx::obs::Trace& trace = mthfx::obs::global_trace();
  trace.clear();
  trace.set_enabled(true);
  scf::rhf(m, basis, rhf_opts);
  scf::sparse_rhf(m, basis, rhf_opts);
  scf::rks(m, basis, ks_opts);
  scf::uhf(m, basis, 1, uhf_opts);
  scf::uks(m, basis, 1, uks_opts);
  trace.set_enabled(false);
  EXPECT_EQ(trace.count("scf.guess"), 5u);
  for (const auto& span : trace.spans()) {
    if (span.name == "scf.guess") {
      EXPECT_EQ(span.depth, 1u);
    }
  }
  trace.clear();
}
