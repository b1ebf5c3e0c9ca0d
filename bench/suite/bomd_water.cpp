// bomd_water — the E5/A8 mechanism: PBE0/STO-3G NVE Born–Oppenheimer MD
// of water on md::ScfPotential (analytic forces, per-geometry
// wavefunction cache, density-extrapolation warm starts, FockBuilder
// rebind), seeded 300 K Maxwell–Boltzmann start, 0.25 fs steps, A8's
// 30x26 grid, one HFX thread. The run integrates until its window is
// spent.
//
// Water rather than DMSO: a DMSO PBE0 step takes 4-5 s on a 4-core host,
// so a run would hold three steps. At 0.5 fs water drifts 2.1-2.2e-4 Ha in
// 120 steps, over the 2e-4 Ha gate; 0.25 fs drifts ~5e-5 Ha. One thread:
// water has 7 basis functions, and with 4 threads the many short parallel
// regions of a step made median step times swing ±13% from run to run on
// a shared host (±5% with one thread, at 35% more time per step).
// Threaded J/K is what scf_screen measures.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "dft/xc_integrator.hpp"
#include "hfx/grad_contraction.hpp"
#include "md/integrator.hpp"
#include "obs/stopwatch.hpp"
#include "scf/gradient.hpp"
#include "suite.hpp"
#include "workload/geometries.hpp"

namespace mthfx::bench_suite {
namespace {

constexpr double kMaxDriftHartree = 2e-4;
constexpr std::size_t kDriftSteps = 120;  ///< the length drift was measured on

/// Timing decorator around ScfPotential: the integrator's only calls
/// into the surface layer. Spans are recorded once `clock` is set.
class TimedSurface : public md::PotentialSurface {
 public:
  explicit TimedSurface(const md::ScfPotential& inner) : inner_(inner) {}

  double energy(const chem::Molecule& mol) const override {
    double e = 0.0;
    energy_s +=
        timed(clock, "md.surface_energy", [&] { e = inner_.energy(mol); });
    last = mol;
    return e;
  }

  std::vector<chem::Vec3> forces(const chem::Molecule& mol) const override {
    std::vector<chem::Vec3> f;
    forces_s +=
        timed(clock, "md.surface_forces", [&] { f = inner_.forces(mol); });
    return f;
  }

  LayerClock* clock = nullptr;
  mutable double energy_s = 0.0, forces_s = 0.0;
  mutable chem::Molecule last;  ///< geometry of the latest energy call

 private:
  const md::ScfPotential& inner_;
};

struct StopRun {};

struct Counters {
  double solves, hits, warm, iterations, reused;
  explicit Counters(const obs::Registry& r)
      : solves(static_cast<double>(r.counter_total("md.scf_solves"))),
        hits(static_cast<double>(r.counter_total("md.surface_cache_hits"))),
        warm(static_cast<double>(r.counter_total("md.warm_starts"))),
        iterations(static_cast<double>(r.counter_total("md.scf_iterations"))),
        reused(static_cast<double>(
            r.counter_total("md.rebind_reused_pairs"))) {}
};

}  // namespace

Outcome run_bomd_water(const RunConfig& config) {
  Outcome out;
  scf::KsOptions ks;
  ks.functional = "pbe0";
  ks.scf.hfx.num_threads = 1;
  ks.grid.radial_points = 30;
  ks.grid.angular_points = 26;

  const chem::Molecule initial =
      RigidMotion::from_seed(config.seed).apply(workload::water());
  md::MdOptions md_options;
  md_options.timestep_fs = 0.25;
  md_options.num_steps = 1 << 20;  // the window ends the run
  md_options.initial_temperature_k = 300.0;
  md_options.seed = static_cast<unsigned>(config.seed);

  // Set-up: a fresh surface and the cold first frame (energy + forces).
  const auto set_up = [&] {
    auto made = std::make_unique<md::ScfPotential>("sto-3g", ks);
    made->energy(initial);
    made->forces(initial);
    return made;
  };
  const std::unique_ptr<md::ScfPotential> potential = set_up();

  TimedSurface surface(*potential);
  LayerClock clock;

  // Replay rounds of the traced half, at the current geometry and on the
  // call paths the surface takes: basis, builder rebind, an (untimed)
  // solve for the density, then the analytic gradient. `replay_basis`
  // outlives each rebind.
  std::unique_ptr<chem::BasisSet> replay_basis;
  std::unique_ptr<hfx::FockBuilder> replay_builder;
  linalg::Diis replay_diis;
  hfx::HfxStats jk_stats;
  const dft::Functional functional = dft::make_functional(ks.functional);
  hfx::GradContractionOptions gopt;
  gopt.ax = functional.exact_exchange;
  gopt.eps_schwarz = ks.scf.hfx.eps_schwarz;
  gopt.num_threads = ks.scf.hfx.num_threads;
  const auto replay_round = [&](const chem::Molecule& mol) {
    std::unique_ptr<chem::BasisSet> next;
    clock.span("chem.basis", [&] {
      next = std::make_unique<chem::BasisSet>(
          chem::BasisSet::build(mol, "sto-3g"));
    });
    if (replay_builder)
      clock.span("hfx.rebind", [&] { replay_builder->rebind(*next); });
    else
      replay_builder = std::make_unique<hfx::FockBuilder>(*next, ks.scf.hfx);
    replay_basis = std::move(next);
    const chem::BasisSet& basis = *replay_basis;
    scf::KsOptions shared = ks;
    shared.scf.shared_builder = replay_builder.get();
    const scf::KsResult solved = scf::rks(mol, basis, shared);
    const linalg::Matrix& p = solved.scf.density;
    jk_stats = replay_rks_round(clock, "", mol, basis, ks, p, replay_diis);
    clock.span("hfx.grad_eri", [&] {
      hfx::two_electron_gradient(basis, replay_builder->pairs(), p, gopt);
    });
    const dft::MolecularGrid grid(mol, ks.grid);
    const dft::XcIntegrator xc(basis, grid);
    clock.span("dft.xc_grad", [&] { xc.gradient(functional, p, mol); });
    clock.span("scf.ks_gradient",
               [&] { scf::ks_gradient(mol, basis, shared, solved); });
  };
  // One round per ~10 steps keeps the replays near 15% of the half.
  constexpr int kStepsPerRound = 10;

  // Frame 0 (no step), untimed warm-up steps, the measured steps and, in
  // a traced run, a second half of measured steps with spans on. Step
  // times exclude the replay rounds this callback runs.
  enum class Phase { kStart, kWarmup, kUntraced, kTraced };
  Phase phase = Phase::kStart;
  const double phase_s = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<double> steps_a, steps_b, totals;
  obs::Stopwatch window;
  double last_frame = 0.0, switch_energy = 0, switch_forces = 0;
  std::unique_ptr<Counters> at_switch;
  const auto next_phase = [&](Phase next) {
    phase = next;
    window.reset();
    last_frame = 0.0;
  };
  const auto on_frame = [&](const md::MdFrame& frame) {
    totals.push_back(frame.total);
    const double now = window.seconds();
    if (phase == Phase::kStart) return next_phase(Phase::kWarmup);
    ++out.attempted;
    const double step = now - last_frame;
    last_frame = now;
    if (phase == Phase::kWarmup) {
      if (now >= config.warmup_s) next_phase(Phase::kUntraced);
      return;
    }
    std::vector<double>& steps = phase == Phase::kTraced ? steps_b : steps_a;
    steps.push_back(step);
    if (now >= phase_s) {
      if (phase == Phase::kTraced || !config.trace) throw StopRun{};
      surface.clock = &clock;
      at_switch = std::make_unique<Counters>(potential->metrics());
      switch_energy = surface.energy_s;
      switch_forces = surface.forces_s;
      return next_phase(Phase::kTraced);
    }
    if (phase == Phase::kTraced && steps.size() % kStepsPerRound == 0) {
      replay_round(surface.last);
      last_frame = window.seconds();
    }
  };
  const Counters before(potential->metrics());
  try {
    md::run_bomd(initial, surface, md_options, on_frame);
  } catch (const StopRun&) {
  } catch (const std::exception& e) {
    ++out.attempted;
    ++out.failed;
    out.detail["md_error"] = e.what();
  }
  const Counters after(potential->metrics());

  // The drift gate covers the first kDriftSteps integrated steps, so the
  // trajectory it judges has the same length on any host and at any
  // speed of the code; the whole trajectory's drift is kept as evidence.
  const auto max_drift = [&](std::size_t frames) {
    double drift = 0.0;
    for (std::size_t i = 0; i < std::min(frames, totals.size()); ++i)
      drift = std::max(drift, std::abs(totals[i] - totals.front()));
    return drift;
  };
  const double drift = max_drift(kDriftSteps + 1);  // frame 0 is not a step
  // Every integrated step, warm-up included.
  const double steps =
      totals.empty() ? 0.0 : static_cast<double>(totals.size() - 1);
  obs::Json drift_evidence = obs::Json::object();
  drift_evidence["max_drift_hartree"] = drift;
  drift_evidence["limit_hartree"] = kMaxDriftHartree;
  drift_evidence["gated_steps"] = std::min(steps, static_cast<double>(kDriftSteps));
  drift_evidence["trajectory_drift_hartree"] = max_drift(totals.size());
  drift_evidence["trajectory_steps"] = steps;
  out.check("nve_drift", drift <= kMaxDriftHartree, std::move(drift_evidence));
  obs::Json solve_evidence = obs::Json::object();
  solve_evidence["solves"] = after.solves - before.solves;
  solve_evidence["steps"] = steps;
  out.check("one_solve_per_step", after.solves - before.solves == steps,
            std::move(solve_evidence));

  if (!config.trace) {
    out.metric("time_to_solution_s", median(steps_a));
    out.record_ops(steps_a);
    out.metric("setup_s", median_setup_seconds(set_up));
    return out;
  }
  if (!at_switch) return out;  // failed before the traced half began
  replay_round(surface.last);

  // Per-layer attribution of the traced half: per solve the surface
  // builds a basis, rebinds, forms S^-1/2 and one-electron matrices, a
  // grid for the solve and one for the gradient, and the gradient; per
  // SCF iteration J/K, XC, orbitals and DIIS.
  const double e2e_s = sum(steps_b);
  const double n = after.solves - at_switch->solves;
  const double iters = after.iterations - at_switch->iterations;
  const double energy_s = surface.energy_s - switch_energy;
  const double forces_s = surface.forces_s - switch_forces;
  const double integrator_s = e2e_s - energy_s - forces_s;
  const auto call = [&](const char* layer) { return clock.median(layer); };
  const double gradient_other = call("scf.ks_gradient") -
                                call("hfx.grad_eri") - call("dft.xc_grad") -
                                call("dft.grid");
  const double layers =
      integrator_s +
      n * (call("chem.basis") + call("hfx.rebind") +
           call("ints.one_electron") + call("linalg.inverse_sqrt") +
           2 * call("dft.grid") + call("hfx.grad_eri") + call("dft.xc_grad") +
           gradient_other) +
      iters * (call("hfx.jk") + call("dft.xc") + call("linalg.solve_orbitals") +
               call("linalg.diis"));
  HfxTally tally;
  tally.add(jk_stats, iters);

  out.metric("md.step_s", median(steps_b));
  out.metric("md.surface_energy_s", energy_s);
  out.metric("md.surface_forces_s", forces_s);
  out.metric("md.integrator_s", integrator_s);
  out.metric("md.scf_iterations_per_step", n > 0 ? iters / n : 0.0);
  out.metric("md.warm_start_frac",
             n > 0 ? (after.warm - at_switch->warm) / n : 0.0);
  const double hits = after.hits - at_switch->hits;
  out.metric("md.cache_hit_frac", hits + n > 0 ? hits / (hits + n) : 0.0);
  const double pair_slots =
      n * static_cast<double>(replay_builder->pairs().size());
  out.metric("md.rebind_reused_frac",
             pair_slots > 0 ? (after.reused - at_switch->reused) / pair_slots
                            : 0.0);
  out.metric("scf.iterations", iters);
  out.metric("scf.solves", n);
  out.metric("chem.basis_s", n * call("chem.basis"));
  out.metric("hfx.jk_s", iters * call("hfx.jk"));
  out.metric("hfx.quartets_computed",
             iters * static_cast<double>(jk_stats.screening.quartets_computed));
  out.metric("hfx.rebind_s", n * call("hfx.rebind"));
  out.metric("hfx.grad_eri_s", n * call("hfx.grad_eri"));
  tally.report(out);
  out.metric("dft.xc_s", iters * call("dft.xc"));
  out.metric("dft.grid_s", n * 2 * call("dft.grid"));
  out.metric("dft.xc_grad_s", n * call("dft.xc_grad"));
  out.metric("scf.gradient_other_s", n * gradient_other);
  out.metric("linalg.eigh_s", n * call("linalg.inverse_sqrt") +
                                  iters * call("linalg.solve_orbitals"));
  out.metric("linalg.diis_s", iters * call("linalg.diis"));
  out.metric("ints.one_electron_s", n * call("ints.one_electron"));
  out.metric("e2e_traced_s", e2e_s);
  out.metric("unattributed_s", e2e_s - layers);
  out.metric("unattributed_frac", (e2e_s - layers) / e2e_s);
  out.metric("trace_overhead_frac", median(steps_b) / median(steps_a) - 1.0);
  out.spans = clock.to_json();
  return out;
}

}  // namespace mthfx::bench_suite
