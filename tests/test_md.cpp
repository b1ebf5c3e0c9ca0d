#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "chem/elements.hpp"
#include "md/forces.hpp"
#include "md/integrator.hpp"
#include "md/optimize.hpp"
#include "md/trajectory.hpp"
#include "md/thermostat.hpp"
#include "obs/trace.hpp"
#include "workload/geometries.hpp"

namespace chem = mthfx::chem;
namespace md = mthfx::md;
namespace wl = mthfx::workload;

namespace {

// Two "argon-like" particles on a harmonic spring.
chem::Molecule diatomic(double r) {
  chem::Molecule m;
  m.add_atom(18, {0, 0, 0});
  m.add_atom(18, {0, 0, r});
  return m;
}

}  // namespace

TEST(Thermostat, KineticEnergyAndTemperature) {
  const auto m = diatomic(2.0);
  std::vector<chem::Vec3> v(2, chem::Vec3{0, 0, 0});
  EXPECT_DOUBLE_EQ(md::kinetic_energy(m, v), 0.0);
  EXPECT_DOUBLE_EQ(md::temperature(m, v), 0.0);

  v[0] = {1e-4, 0, 0};
  const double mass = chem::element(18).mass_amu * chem::kAmuToElectronMass;
  EXPECT_NEAR(md::kinetic_energy(m, v), 0.5 * mass * 1e-8, 1e-12);
  EXPECT_GT(md::temperature(m, v), 0.0);
}

TEST(Thermostat, BerendsenPullsTowardTarget) {
  // Too hot -> lambda < 1; too cold -> lambda > 1; on target -> 1.
  EXPECT_LT(md::berendsen_lambda(600.0, 300.0, 1.0, 10.0), 1.0);
  EXPECT_GT(md::berendsen_lambda(100.0, 300.0, 1.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(md::berendsen_lambda(300.0, 300.0, 1.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(md::berendsen_lambda(0.0, 300.0, 1.0, 10.0), 1.0);
}

TEST(Thermostat, MaxwellBoltzmannHitsTargetTemperature) {
  // Many particles -> sampled temperature within a few percent.
  chem::Molecule m;
  for (int i = 0; i < 400; ++i) m.add_atom(18, {0, 0, 2.0 * i});
  const auto v = md::maxwell_boltzmann_velocities(m, 300.0, 7);
  EXPECT_NEAR(md::temperature(m, v), 300.0, 25.0);
  // COM momentum removed.
  chem::Vec3 p{0, 0, 0};
  for (std::size_t i = 0; i < m.size(); ++i) p = p + v[i];
  EXPECT_NEAR(chem::norm(p), 0.0, 1e-10);
}

TEST(Forces, FiniteDifferenceMatchesAnalyticHarmonic) {
  md::HarmonicBondPotential pot({{0, 1, 0.3, 2.0}});
  const auto m = diatomic(2.5);
  const auto fa = pot.forces(m);

  // Rebuild via the base-class FD path.
  struct FdOnly : md::PotentialSurface {
    const md::HarmonicBondPotential* inner;
    double energy(const chem::Molecule& mol) const override {
      return inner->energy(mol);
    }
  } fd;
  fd.inner = &pot;
  const auto ff = fd.forces(m);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t d = 0; d < 3; ++d)
      EXPECT_NEAR(fa[i][d], ff[i][d], 1e-7);
}

TEST(Integrator, ConservesEnergyNve) {
  md::HarmonicBondPotential pot({{0, 1, 0.5, 2.0}});
  const auto m = diatomic(2.3);  // displaced from r0 = 2.0
  md::MdOptions opts;
  opts.timestep_fs = 0.5;
  opts.num_steps = 400;
  const auto result = md::run_bomd(m, pot, opts);
  ASSERT_EQ(result.frames.size(), 401u);
  // Verlet drift scale is (omega dt)^2 * E_vib ~ 6e-5 at this timestep.
  EXPECT_LT(result.max_energy_drift(), 1e-4);
  // Energy actually exchanges between kinetic and potential.
  double max_ke = 0.0;
  for (const auto& f : result.frames) max_ke = std::max(max_ke, f.kinetic);
  EXPECT_GT(max_ke, 1e-4);
}

TEST(Integrator, SmallerTimestepReducesDrift) {
  md::HarmonicBondPotential pot({{0, 1, 0.5, 2.0}});
  const auto m = diatomic(2.5);
  md::MdOptions coarse;
  coarse.timestep_fs = 2.0;
  coarse.num_steps = 100;
  md::MdOptions fine;
  fine.timestep_fs = 0.25;
  fine.num_steps = 800;  // same simulated time
  const double d_coarse = md::run_bomd(m, pot, coarse).max_energy_drift();
  const double d_fine = md::run_bomd(m, pot, fine).max_energy_drift();
  EXPECT_LT(d_fine, d_coarse);
}

TEST(Integrator, ThermostatRegulatesTemperature) {
  // Start cold with a stretched spring; Berendsen drives T toward target.
  md::HarmonicBondPotential pot({{0, 1, 0.5, 2.0}});
  chem::Molecule m;
  for (int i = 0; i < 2; ++i) m.add_atom(18, {0, 0, 2.4 * i});
  md::MdOptions opts;
  opts.timestep_fs = 1.0;
  opts.num_steps = 500;
  opts.target_temperature_k = 200.0;
  opts.initial_temperature_k = 600.0;
  const auto result = md::run_bomd(m, pot, opts);
  // Late-trajectory temperature is pulled well below the hot start.
  double late_avg = 0.0;
  int count = 0;
  for (std::size_t i = result.frames.size() - 100; i < result.frames.size();
       ++i, ++count)
    late_avg += result.frames[i].temperature_k;
  late_avg /= count;
  EXPECT_LT(late_avg, 450.0);
  EXPECT_GT(late_avg, 30.0);
}

TEST(Integrator, CallbackSeesEveryFrame) {
  md::HarmonicBondPotential pot({{0, 1, 0.5, 2.0}});
  int seen = 0;
  md::MdOptions opts;
  opts.num_steps = 25;
  md::run_bomd(diatomic(2.2), pot, opts,
               [&](const md::MdFrame&) { ++seen; });
  EXPECT_EQ(seen, 26);
}

TEST(Integrator, ScfSurfaceH2OscillatesAboutBondLength) {
  // Real BOMD on the RHF surface: H2 stretched to 1.6 a0 must pull back
  // toward ~1.4 a0 (restoring force), conserving energy reasonably.
  mthfx::scf::KsOptions ks;
  ks.functional = "hf";
  md::ScfPotential pot("sto-3g", ks);
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.6});

  md::MdOptions opts;
  opts.timestep_fs = 0.15;  // H2 stretch is fast: keep omega*dt small
  opts.num_steps = 12;
  const auto result = md::run_bomd(m, pot, opts);
  const double r_final = chem::distance(result.final_geometry.atom(0).pos,
                                        result.final_geometry.atom(1).pos);
  EXPECT_LT(r_final, 1.6);  // bond contracted toward equilibrium
  EXPECT_LT(result.max_energy_drift(), 2e-4);
}

TEST(Forces, AnalyticRhfForcesMatchFiniteDifference) {
  mthfx::scf::KsOptions ks;
  ks.functional = "hf";
  ks.scf.energy_tolerance = 1e-11;
  ks.scf.diis_tolerance = 1e-9;
  md::ScfPotential pot("sto-3g", ks);
  const auto m = wl::water();

  const auto analytic = pot.forces(m);  // analytic-gradient path

  // Force the finite-difference path through the base class.
  struct FdView : md::PotentialSurface {
    const md::ScfPotential* inner;
    double energy(const chem::Molecule& mol) const override {
      return inner->energy(mol);
    }
  } fd;
  fd.inner = &pot;
  fd.fd_step = 1e-4;
  const auto numeric = fd.forces(m);

  for (std::size_t i = 0; i < m.size(); ++i)
    for (std::size_t d = 0; d < 3; ++d)
      EXPECT_NEAR(analytic[i][d], numeric[i][d], 1e-5) << i << "," << d;
}

TEST(Forces, WavefunctionCacheMakesEnergyPlusForcesOneScf) {
  // The integrator asks for energy(mol) then forces(mol) at the same
  // geometry every step; the per-geometry cache must collapse that to
  // one SCF solve. Counters pin the contract.
  mthfx::scf::KsOptions ks;
  ks.functional = "hf";
  md::ScfPotential pot("sto-3g", ks);
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.5});

  pot.energy(m);
  pot.forces(m);
  EXPECT_EQ(pot.metrics().counter_total("md.scf_solves"), 1u);
  EXPECT_EQ(pot.metrics().counter_total("md.surface_cache_hits"), 1u);

  // A moved geometry is a genuine new solve, not a stale cache hit.
  chem::Molecule moved = m;
  moved.set_position(1, {0, 0, 1.6});
  pot.forces(moved);
  EXPECT_EQ(pot.metrics().counter_total("md.scf_solves"), 2u);
  EXPECT_EQ(pot.metrics().counter_total("md.surface_cache_hits"), 1u);
  // Only atom 1 moved, so the rebind carried atom 0's diagonal shell
  // pair (and its Hermite table) over from the previous geometry.
  EXPECT_GT(pot.metrics().counter_total("md.rebind_reused_pairs"), 0u);

  // ...and the original geometry re-solves too (history, not a map).
  pot.energy(m);
  EXPECT_EQ(pot.metrics().counter_total("md.scf_solves"), 3u);
}

TEST(Forces, SolveAndGradientShareOneGridPerGeometry) {
  // The surface builds one XC grid and AO table per geometry; the solve
  // and ks_gradient both integrate on it, so a step's energy() +
  // forces() opens one dft.grid span, not one per consumer.
  mthfx::scf::KsOptions ks;
  ks.functional = "pbe";
  ks.grid.radial_points = 15;
  ks.grid.angular_points = 14;
  md::ScfPotential pot("sto-3g", ks);
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.5});

  mthfx::obs::Trace& trace = mthfx::obs::global_trace();
  trace.clear();
  trace.set_enabled(true);
  pot.energy(m);
  pot.forces(m);
  const std::uint64_t one_step = trace.count("dft.grid");
  chem::Molecule moved = m;
  moved.set_position(1, {0, 0, 1.6});
  pot.forces(moved);
  const std::uint64_t two_steps = trace.count("dft.grid");
  trace.set_enabled(false);
  trace.clear();
  EXPECT_EQ(one_step, 1u);
  EXPECT_EQ(two_steps, 2u);
  EXPECT_EQ(pot.metrics().counter_total("md.scf_solves"), 2u);
}

TEST(Integrator, BomdRunsOneScfPerStep) {
  mthfx::scf::KsOptions ks;
  ks.functional = "hf";
  md::ScfPotential pot("sto-3g", ks);
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.5});

  md::MdOptions opts;
  opts.timestep_fs = 0.15;
  opts.num_steps = 4;
  md::run_bomd(m, pot, opts);
  // One solve per unique geometry (initial + one per step); every
  // energy()+forces() pair costs exactly one cache hit.
  EXPECT_EQ(pot.metrics().counter_total("md.scf_solves"), 5u);
  EXPECT_EQ(pot.metrics().counter_total("md.surface_cache_hits"), 5u);
}

TEST(Integrator, WarmStartReducesScfIterations) {
  // Mid-trajectory solves seeded with the extrapolated density must
  // converge in fewer total iterations than cold core-guess starts.
  mthfx::scf::KsOptions ks;
  ks.functional = "hf";
  chem::Molecule m;
  m.add_atom(3, {0, 0, 0});
  m.add_atom(1, {0, 0, 3.2});

  md::MdOptions opts;
  opts.timestep_fs = 0.25;
  opts.num_steps = 5;

  md::ScfPotential warm("sto-3g", ks);
  md::SurfaceAccel no_warm;
  no_warm.warm_start = false;
  md::ScfPotential cold("sto-3g", ks, no_warm);

  md::run_bomd(m, warm, opts);
  md::run_bomd(m, cold, opts);

  const auto& wm = warm.metrics();
  const auto& cm = cold.metrics();
  ASSERT_EQ(wm.counter_total("md.scf_solves"),
            cm.counter_total("md.scf_solves"));
  // Every solve after the first has history to extrapolate from.
  EXPECT_EQ(wm.counter_total("md.warm_starts"),
            wm.counter_total("md.scf_solves") - 1);
  EXPECT_EQ(cm.counter_total("md.warm_starts"), 0u);
  EXPECT_LT(wm.counter_total("md.scf_iterations"),
            cm.counter_total("md.scf_iterations"));
}

TEST(Integrator, Pbe0AnalyticNveConservesEnergy) {
  // NVE regression for the analytic PBE0 force path: drift stays inside
  // the pinned bound and is no worse than the finite-difference baseline
  // it replaced (modulo the FD path's own O(h^2) force error).
  mthfx::scf::KsOptions ks;
  ks.functional = "pbe0";
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.5});

  md::MdOptions opts;
  opts.timestep_fs = 0.15;
  opts.num_steps = 8;

  md::ScfPotential pot("sto-3g", ks);
  const double drift_analytic = md::run_bomd(m, pot, opts).max_energy_drift();
  EXPECT_LT(drift_analytic, 2e-4);  // pinned NVE bound for this setup

  md::ScfPotential pot_fd("sto-3g", ks);
  struct FdView : md::PotentialSurface {
    const md::ScfPotential* inner;
    double energy(const chem::Molecule& mol) const override {
      return inner->energy(mol);
    }
  } fd;
  fd.inner = &pot_fd;
  fd.fd_step = 1e-3;
  const double drift_fd = md::run_bomd(m, fd, opts).max_energy_drift();
  EXPECT_LT(drift_analytic, 2.0 * drift_fd + 1e-5);
}

TEST(Optimize, HarmonicDiatomicFindsMinimum) {
  md::HarmonicBondPotential pot({{0, 1, 0.5, 2.0}});
  const auto r = md::optimize(diatomic(2.6), pot);
  ASSERT_TRUE(r.converged);
  const double dist = chem::distance(r.geometry.atom(0).pos,
                                     r.geometry.atom(1).pos);
  EXPECT_NEAR(dist, 2.0, 1e-3);
  EXPECT_NEAR(r.energy, 0.0, 1e-6);
}

TEST(Optimize, RhfH2BondLengthMatchesSto3gMinimum) {
  // RHF/STO-3G H2 equilibrium bond length is ~1.346 a0 (0.712 A),
  // located here with analytic gradients.
  mthfx::scf::KsOptions ks;
  ks.functional = "hf";
  ks.scf.energy_tolerance = 1e-11;
  ks.scf.diis_tolerance = 1e-9;
  md::ScfPotential pot("sto-3g", ks);
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.6});
  md::OptimizeOptions opts;
  opts.force_tolerance = 1e-5;
  const auto r = md::optimize(m, pot, opts);
  ASSERT_TRUE(r.converged);
  const double dist = chem::distance(r.geometry.atom(0).pos,
                                     r.geometry.atom(1).pos);
  EXPECT_NEAR(dist, 1.346, 5e-3);
  EXPECT_LT(r.energy, -1.117);  // below the R = 1.4 energy
}

TEST(Optimize, EnergyDecreasesMonotonicallyNearConvergence) {
  md::HarmonicBondPotential pot({{0, 1, 0.8, 2.2}});
  const auto r = md::optimize(diatomic(2.8), pot);
  ASSERT_TRUE(r.converged);
  ASSERT_GE(r.energy_trace.size(), 2u);
  // Final steps strictly descend.
  const auto& tr = r.energy_trace;
  EXPECT_LT(tr.back(), tr.front());
}

TEST(Trajectory, RecordsFramesAndSerializes) {
  md::HarmonicBondPotential pot({{0, 1, 0.5, 2.0}});
  md::TrajectoryWriter writer;
  md::MdOptions opts;
  opts.num_steps = 5;
  const auto result =
      md::run_bomd_recorded(diatomic(2.3), pot, opts, writer);
  EXPECT_EQ(writer.num_frames(), 6u);
  EXPECT_EQ(result.frames.size(), 6u);

  const std::string xyz = writer.xyz();
  // Six XYZ blocks, each starting with the atom count line "2".
  std::size_t blocks = 0, pos = 0;
  while ((pos = xyz.find("2\nt=", pos)) != std::string::npos) {
    ++blocks;
    pos += 4;
  }
  EXPECT_EQ(blocks, 6u);

  const std::string csv = writer.energy_csv();
  EXPECT_NE(csv.find("time_fs,potential_ha"), std::string::npos);
  // Header + 6 data rows.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            7u);
}

TEST(Trajectory, GeometriesEvolveAcrossFrames) {
  md::HarmonicBondPotential pot({{0, 1, 0.5, 2.0}});
  md::TrajectoryWriter writer;
  md::MdOptions opts;
  opts.num_steps = 10;
  md::run_bomd_recorded(diatomic(2.5), pot, opts, writer);
  const std::string xyz = writer.xyz();
  // The stretched bond contracts: first and last frames differ.
  const auto first_end = xyz.find("\n", xyz.find("Ar"));
  EXPECT_NE(xyz.substr(0, 200), xyz.substr(xyz.size() - 200));
  (void)first_end;
}

TEST(Integrator, MaxEnergyDriftOfEmptyResultIsZero) {
  EXPECT_EQ(md::MdResult{}.max_energy_drift(), 0.0);
}
