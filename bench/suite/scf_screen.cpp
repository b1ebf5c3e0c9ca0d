// scf_screen — the paper's E6 screening unit: cold PBE0/STO-3G single
// points at bench_e6's screening settings (eps_schwarz 1e-9, |dE| 1e-8,
// DIIS 1e-5, 25x26 grid), four HFX threads, dense J/K path. One pass
// solves every species once; the run repeats passes for its window.
//
// Species: water, OH-, Li2O2 and DMSO. PC is left out: one PC single
// point takes 6-9 s on a 4-core host, more than a third of a run; PC is
// covered by box_sparse's solvent box instead.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "suite.hpp"
#include "workload/geometries.hpp"

namespace mthfx::bench_suite {
namespace {

struct Species {
  std::string key;
  chem::Molecule mol;
  std::unique_ptr<chem::BasisSet> basis;
};

scf::KsOptions screening_options(std::size_t threads) {
  scf::KsOptions o;
  o.functional = "pbe0";
  o.scf.hfx.num_threads = threads;
  o.scf.hfx.eps_schwarz = 1e-9;
  o.scf.energy_tolerance = 1e-8;
  o.scf.diis_tolerance = 1e-5;
  o.grid.radial_points = 25;
  o.grid.angular_points = 26;
  return o;
}

std::vector<Species> make_species(const RunConfig& config) {
  const std::vector<std::string> names =
      config.smoke ? std::vector<std::string>{"water", "oh-"}
                   : std::vector<std::string>{"water", "oh-", "li2o2", "dmso"};
  std::vector<Species> species;
  for (std::size_t i = 0; i < names.size(); ++i) {
    Species s;
    s.key = "scf_screen." + names[i];
    s.mol = RigidMotion::from_seed(config.seed * 8 + i).apply(
        workload::by_name(names[i]));
    s.basis = std::make_unique<chem::BasisSet>(
        chem::BasisSet::build(s.mol, "sto-3g"));
    species.push_back(std::move(s));
  }
  return species;
}

struct Solve {
  std::size_t species = 0;
  double seconds = 0.0;
  scf::KsResult result;
};

}  // namespace

Outcome run_scf_screen(const RunConfig& config) {
  Outcome out;
  out.hfx_threads = config.threads;
  const scf::KsOptions options = screening_options(config.threads);
  // Set-up: inputs, basis sets, and one water solve so lazily built
  // tables are in place before the first timed pass.
  const auto set_up = [&] {
    std::vector<Species> made = make_species(config);
    scf::rks(made[0].mol, *made[0].basis, options);
    return made;
  };
  const std::vector<Species> species = set_up();

  LayerClock clock;
  std::vector<Solve> last_solve(species.size());
  // One pass: every species once. With `traced` set the solves are spans
  // and kept in `solves`.
  const auto pass = [&](LayerClock* traced, std::vector<Solve>* solves) {
    double pass_s = 0.0;
    for (std::size_t i = 0; i < species.size(); ++i) {
      Solve solve;
      solve.species = i;
      solve.seconds = timed(traced, "scf.rks", [&] {
        solve.result = scf::rks(species[i].mol, *species[i].basis, options);
      });
      pass_s += solve.seconds;
      ++out.attempted;
      if (!solve.result.scf.converged) ++out.failed;
      if (solves) solves->push_back(solve);
      last_solve[i] = std::move(solve);
    }
    return pass_s;
  };
  const auto untraced_pass = [&] { return pass(nullptr, nullptr); };

  run_window(config.warmup_s, untraced_pass);  // untimed warm-up
  if (!config.trace) {
    const auto passes = run_window(config.seconds, untraced_pass);
    out.metric("time_to_solution_s", median(passes));
    out.record_ops(passes);
    out.metric("setup_s", median_setup_seconds(set_up));
  } else {
    const auto untraced = run_window(config.seconds / 2, untraced_pass);
    // Between traced passes, one replay round per species at its latest
    // density.
    std::vector<Solve> solves;
    std::vector<linalg::Diis> diis_history(species.size());
    std::vector<hfx::HfxStats> jk_stats(species.size());
    const auto replay_round = [&] {
      for (std::size_t i = 0; i < species.size(); ++i)
        jk_stats[i] = replay_rks_round(
            clock, species[i].key + "/", species[i].mol, *species[i].basis,
            options, last_solve[i].result.scf.density, diis_history[i]);
    };
    const auto traced = run_window(
        config.seconds / 2, [&] { return pass(&clock, &solves); },
        replay_round);
    replay_round();
    const double e2e_s = sum(traced);

    // Per-species call counts over the traced passes.
    std::vector<double> n_solves(species.size(), 0.0);
    std::vector<double> n_iters(species.size(), 0.0);
    double jk_s = 0.0, quartets = 0.0;
    for (const Solve& s : solves) {
      n_solves[s.species] += 1;
      n_iters[s.species] += static_cast<double>(s.result.scf.log.size());
      for (const auto& row : s.result.scf.log) {
        jk_s += row.jk_seconds;
        quartets += static_cast<double>(row.quartets_computed);
      }
    }

    double one_electron = 0, eigh = 0, guess = 0, setup = 0, grid = 0;
    double xc = 0, diis = 0;
    HfxTally tally;
    for (std::size_t i = 0; i < species.size(); ++i) {
      const auto call = [&](const char* layer) {
        return clock.median(species[i].key + "/" + layer);
      };
      // Per solve: one-electron matrices, S^-1/2, guess, builder, grid.
      // Per iteration: J/K, XC, orbitals, DIIS.
      one_electron += n_solves[i] * call("ints.one_electron");
      eigh += n_solves[i] * call("linalg.inverse_sqrt") +
              n_iters[i] * call("linalg.solve_orbitals");
      guess += n_solves[i] * call("scf.guess");
      setup += n_solves[i] * call("hfx.setup");
      grid += n_solves[i] * call("dft.grid");
      xc += n_iters[i] * call("dft.xc");
      diis += n_iters[i] * call("linalg.diis");
      tally.add(jk_stats[i], n_iters[i]);
    }
    const double layers =
        jk_s + one_electron + eigh + guess + setup + grid + xc + diis;

    out.metric("scf.iterations", sum(n_iters));
    out.metric("scf.solves", sum(n_solves));
    out.metric("scf.guess_s", guess);
    out.metric("hfx.jk_s", jk_s);
    out.metric("hfx.quartets_computed", quartets);
    out.metric("hfx.setup_s", setup);
    tally.report(out);
    out.metric("dft.xc_s", xc);
    out.metric("dft.grid_s", grid);
    out.metric("linalg.eigh_s", eigh);
    out.metric("linalg.diis_s", diis);
    out.metric("ints.one_electron_s", one_electron);
    out.metric("e2e_traced_s", e2e_s);
    out.metric("unattributed_s", e2e_s - layers);
    out.metric("unattributed_frac", (e2e_s - layers) / e2e_s);
    out.metric("trace_overhead_frac",
               median(traced) / median(untraced) - 1.0);
    out.spans = clock.to_json();
  }

  // Correctness: each species' energy matches its reference (every
  // non-converged solve already counted as a failed operation).
  for (std::size_t i = 0; i < species.size(); ++i)
    check_energy(out, config, species[i].key,
                 last_solve[i].result.scf.energy);
  return out;
}

}  // namespace mthfx::bench_suite
