// A8 — BOMD surface-acceleration ablation: MD throughput on the PBE0
// surface before and after this repo's analytic-gradient + cross-step
// acceleration work. Three configurations run the same NVE trajectory:
//
//   fd_cold        finite-difference forces, no caching — the pre-A8
//                  behavior for semilocal/hybrid functionals (6N+1
//                  SCF solves per MD step)
//   analytic_cold  analytic ks_gradient forces, acceleration disabled
//                  (cold SAD-guess start every solve)
//   analytic_warm  analytic forces + per-geometry wavefunction cache,
//                  density-matrix extrapolation warm starts, and
//                  persistent FockBuilder rebind (the default surface)
//
// The table reports MD steps/hour, SCF solves and iterations per step
// (from the surface's obs counters), and max NVE energy drift — the
// drift column certifies that the fast path is still conserving energy,
// not just faster.
//
// `--smoke` runs a 2-step H2 trajectory and exits nonzero if the
// accelerated surface's counters violate the one-solve-per-step
// contract — the CI invocation in scripts/run_tests.sh. Without it, the
// full water/PBE0 table runs, emits BENCH_bomd.json, and hands off to
// google-benchmark for the registered timing loops.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "md/integrator.hpp"

namespace {

using namespace mthfx;

// Forces the base-class central-difference path over an inner surface,
// the way ScfPotential::forces behaved for semilocal functionals before
// the analytic ks_gradient landed.
struct FdSurface : md::PotentialSurface {
  const md::ScfPotential* inner = nullptr;
  double energy(const chem::Molecule& mol) const override {
    return inner->energy(mol);
  }
};

struct ConfigResult {
  std::string name;
  double secs_per_step = 0.0;
  double steps_per_hour = 0.0;
  double solves_per_step = 0.0;
  double iters_per_step = 0.0;
  double max_drift = 0.0;
  std::uint64_t warm_starts = 0;
  std::uint64_t cache_hits = 0;
};

ConfigResult run_config(const std::string& name, const chem::Molecule& m,
                        const scf::KsOptions& ks, const md::MdOptions& opts,
                        const md::SurfaceAccel& accel, bool use_fd) {
  md::ScfPotential pot("sto-3g", ks, accel);
  FdSurface fd;
  fd.inner = &pot;
  fd.fd_step = 1e-3;
  md::PotentialSurface& surface =
      use_fd ? static_cast<md::PotentialSurface&>(fd) : pot;

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = md::run_bomd(m, surface, opts);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double steps = static_cast<double>(opts.num_steps);
  ConfigResult r;
  r.name = name;
  r.secs_per_step = secs / steps;
  r.steps_per_hour = 3600.0 / r.secs_per_step;
  r.solves_per_step =
      static_cast<double>(pot.metrics().counter_total("md.scf_solves")) / steps;
  r.iters_per_step =
      static_cast<double>(pot.metrics().counter_total("md.scf_iterations")) /
      steps;
  r.max_drift = result.max_energy_drift();
  r.warm_starts = pot.metrics().counter_total("md.warm_starts");
  r.cache_hits = pot.metrics().counter_total("md.surface_cache_hits");
  return r;
}

obs::Json make_row(const ConfigResult& r, double baseline_steps_per_hour) {
  const double speedup = r.steps_per_hour / baseline_steps_per_hour;
  std::printf("%-15s %-11.2f %-12.1f %-10.1f %-10.1f %-12.2e %-8.2f\n",
              r.name.c_str(), r.secs_per_step, r.steps_per_hour,
              r.solves_per_step, r.iters_per_step, r.max_drift, speedup);
  obs::Json row = obs::Json::object();
  row["config"] = r.name;
  row["seconds_per_step"] = r.secs_per_step;
  row["md_steps_per_hour"] = r.steps_per_hour;
  row["scf_solves_per_step"] = r.solves_per_step;
  row["scf_iterations_per_step"] = r.iters_per_step;
  row["max_energy_drift"] = r.max_drift;
  row["warm_starts"] = r.warm_starts;
  row["surface_cache_hits"] = r.cache_hits;
  row["speedup_vs_fd"] = speedup;
  return row;
}

// The accelerated surface's hard contract: one SCF per MD step (the
// integrator's energy+forces pair hits the cache), every post-initial
// solve warm-started, and the trajectory still conserving energy.
bool accel_contract_holds(const ConfigResult& warm, int num_steps,
                          double drift_bound) {
  const auto steps = static_cast<double>(num_steps);
  const double expected_solves = (steps + 1.0) / steps;
  bool ok = true;
  if (warm.solves_per_step > expected_solves + 1e-12) {
    std::fprintf(stderr,
                 "A8: accelerated surface ran %.2f solves/step, expected "
                 "%.2f (cache miss inside a step)\n",
                 warm.solves_per_step, expected_solves);
    ok = false;
  }
  if (warm.cache_hits != static_cast<std::uint64_t>(num_steps) + 1) {
    std::fprintf(stderr, "A8: expected %d cache hits, saw %llu\n",
                 num_steps + 1,
                 static_cast<unsigned long long>(warm.cache_hits));
    ok = false;
  }
  if (warm.warm_starts != static_cast<std::uint64_t>(num_steps)) {
    std::fprintf(stderr, "A8: expected %d warm starts, saw %llu\n", num_steps,
                 static_cast<unsigned long long>(warm.warm_starts));
    ok = false;
  }
  if (!(warm.max_drift < drift_bound)) {
    std::fprintf(stderr, "A8: NVE drift %.3e exceeds bound %.3e\n",
                 warm.max_drift, drift_bound);
    ok = false;
  }
  return ok;
}

obs::Json ablation_table(bool smoke, bool* contract_ok) {
  scf::KsOptions ks;
  ks.functional = "pbe0";
  ks.grid.radial_points = 30;
  ks.grid.angular_points = 26;

  chem::Molecule m;
  if (smoke) {
    m.add_atom(1, {0, 0, 0});
    m.add_atom(1, {0, 0, 1.55});
  } else {
    m = workload::by_name("water");
  }

  md::MdOptions opts;
  opts.timestep_fs = 0.15;
  opts.num_steps = smoke ? 2 : 6;

  bench::print_header(
      smoke ? "A8: BOMD surface ablation (smoke: H2, PBE0/STO-3G, NVE)"
            : "A8: BOMD surface ablation (water, PBE0/STO-3G, NVE)");
  std::printf("%-15s %-11s %-12s %-10s %-10s %-12s %-8s\n", "config", "s/step",
              "steps/hour", "solves/st", "iters/st", "max drift", "speedup");
  bench::print_rule();

  md::SurfaceAccel off;
  off.cache_wavefunction = false;
  off.warm_start = false;
  off.reuse_builder = false;

  const auto fd = run_config("fd_cold", m, ks, opts, off, /*use_fd=*/true);
  const auto cold =
      run_config("analytic_cold", m, ks, opts, off, /*use_fd=*/false);
  const auto warm = run_config("analytic_warm", m, ks, opts,
                               md::SurfaceAccel{}, /*use_fd=*/false);

  obs::Json rows = obs::Json::array();
  rows.push_back(make_row(fd, fd.steps_per_hour));
  rows.push_back(make_row(cold, fd.steps_per_hour));
  rows.push_back(make_row(warm, fd.steps_per_hour));

  *contract_ok = accel_contract_holds(warm, opts.num_steps, 2e-4);

  std::printf(
      "\nfd_cold is the pre-A8 semilocal/hybrid force path (6N+1 SCF "
      "solves per step); analytic_warm is the shipped default.\n");
  return rows;
}

// Per-call timing for the accelerated force path: the energy()+forces()
// pair the integrator issues each step, at a fresh geometry every
// iteration so the cache never short-circuits the solve being measured.
void BM_Pbe0WarmStep(benchmark::State& state) {
  scf::KsOptions ks;
  ks.functional = "pbe0";
  ks.grid.radial_points = 30;
  ks.grid.angular_points = 26;
  md::ScfPotential pot("sto-3g", ks);
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.55});
  double bond = 1.55;
  for (auto _ : state) {
    bond += 1e-3;  // march the geometry so each pair is a genuine step
    m.set_position(1, {0, 0, bond});
    benchmark::DoNotOptimize(pot.energy(m));
    benchmark::DoNotOptimize(pot.forces(m));
  }
}
BENCHMARK(BM_Pbe0WarmStep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  bool contract_ok = true;
  obs::Json record = obs::Json::object();
  record["bench"] = "bomd";
  record["ablation"] = ablation_table(smoke, &contract_ok);
  if (!smoke) bench::write_bench_json("bomd", record);

  if (!contract_ok) return 1;
  if (smoke) {
    std::printf("A8 smoke: accelerated surface honors its counters.\n");
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
