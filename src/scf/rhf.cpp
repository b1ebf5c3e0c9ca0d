// The closed-shell entry points (rhf, sparse_rhf, rks): thin wrappers
// over the one SCF loop in scf/scf_loop.hpp.

#include "scf/rhf.hpp"

#include <optional>
#include <stdexcept>
#include <string>

#include "dft/xc_integrator.hpp"
#include "obs/trace.hpp"
#include "scf/rks.hpp"
#include "scf/scf_loop.hpp"
#include "scf/sparse_scf.hpp"

namespace mthfx::scf {

obs::Json scf_log_to_json(const std::vector<ScfIterationLog>& log) {
  obs::Json rows = obs::Json::array();
  for (std::size_t i = 0; i < log.size(); ++i) {
    const ScfIterationLog& e = log[i];
    obs::Json row = obs::Json::object();
    row["iteration"] = i + 1;
    row["energy"] = e.energy;
    row["delta_e"] = e.delta_e;
    row["diis_error"] = e.diis_error;
    row["quartets_computed"] = e.quartets_computed;
    row["seconds"] = e.seconds;
    row["jk_seconds"] = e.jk_seconds;
    row["recovery_stage"] =
        to_string(static_cast<RecoveryStage>(e.recovery_stage));
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

// One channel of N/2 states, started from ScfOptions::initial_density
// or, cold, from SAD.
detail::LoopSpec closed_shell_spec(const char* method,
                                   const chem::Molecule& mol,
                                   const chem::BasisSet& basis,
                                   const ScfOptions& options) {
  if (mol.num_electrons() % 2 != 0)
    throw std::invalid_argument(std::string(method) +
                                ": closed-shell SCF needs even electrons");
  detail::LoopSpec spec;
  spec.method = method;
  spec.nocc = {static_cast<std::size_t>(mol.num_electrons() / 2)};
  spec.nuclear_repulsion = mol.nuclear_repulsion();
  const obs::Trace::Scope guess_span(obs::global_trace(), "scf.guess");
  spec.guess = {options.initial_density ? *options.initial_density
                                        : sad_guess_density(basis, mol)};
  return spec;
}

}  // namespace

ScfResult rhf(const chem::Molecule& mol, const chem::BasisSet& basis,
              const ScfOptions& options) {
  // Large-basis route: distance-culled pairs, blocked J/K, purification
  // instead of diagonalization (scf/sparse_scf.hpp). Small systems never
  // enter it under the default kAuto threshold.
  if (options.hfx.sparsity.blocked(basis.num_functions()))
    return sparse_rhf(mol, basis, options);
  const obs::Trace::Scope scf_span(obs::global_trace(), "scf.rhf");
  detail::LoopSpec spec = closed_shell_spec("rhf", mol, basis, options);
  spec.incremental = options.incremental_fock;
  const auto step = detail::diagonalize_step(mol, basis, options.hfx,
                                             options.shared_builder, "rhf");
  return detail::run_scf(spec, options, *step).scf;
}

ScfResult sparse_rhf(const chem::Molecule& mol, const chem::BasisSet& basis,
                     const ScfOptions& options, SparseScfInfo* info) {
  const obs::Trace::Scope scf_span(obs::global_trace(), "scf.sparse_rhf");
  detail::LoopSpec spec =
      closed_shell_spec("sparse_rhf", mol, basis, options);
  spec.incremental = options.incremental_fock;
  SparseScfInfo local_info;
  const auto step =
      detail::purify_step(mol, basis, options, info ? *info : local_info);
  return detail::run_scf(spec, options, *step).scf;
}

KsResult rks(const chem::Molecule& mol, const chem::BasisSet& basis,
             const KsOptions& options) {
  const obs::Trace::Scope scf_span(obs::global_trace(), "scf.rks");
  detail::LoopSpec spec = closed_shell_spec("rks", mol, basis, options.scf);
  const dft::Functional functional = dft::make_functional(options.functional);
  spec.ax = functional.exact_exchange;
  const auto step = detail::diagonalize_step(
      mol, basis, options.scf.hfx, options.scf.shared_builder, "rks");

  // The grid is only needed for functionals with a semilocal part. XC
  // runs on the J/K builder's pool.
  std::optional<KsGrid> own_grid;
  if (options.functional != "hf") {
    const dft::XcIntegrator& xc = grid_for(mol, basis, options, own_grid).xc();
    spec.xc = [&](const std::vector<detail::Channel>& ch) {
      dft::XcResult r =
          xc.integrate(functional, ch[0].p, &step->builder().pool());
      return detail::XcTerm{r.energy, r.integrated_density, {std::move(r.v)}};
    };
  }

  detail::LoopResult r = detail::run_scf(spec, options.scf, *step);
  KsResult out;
  out.xc_energy = r.xc_energy;
  out.exact_exchange_energy = r.scf.exchange_energy;
  out.integrated_density = r.integrated_density;
  out.scf = std::move(r.scf);
  return out;
}

KsGrid::KsGrid(const chem::Molecule& mol, const chem::BasisSet& basis,
               const dft::GridOptions& options)
    : mol_(mol),
      basis_(&basis),
      options_(options),
      grid_(mol, options),
      xc_(basis, grid_) {}

bool KsGrid::matches(const chem::Molecule& mol, const chem::BasisSet& basis,
                     const dft::GridOptions& options) const {
  return &basis == basis_ && options == options_ && mol == mol_;
}

const KsGrid& grid_for(const chem::Molecule& mol, const chem::BasisSet& basis,
                       const KsOptions& options, std::optional<KsGrid>& own) {
  const KsGrid* shared = options.shared_grid;
  if (shared && shared->matches(mol, basis, options.grid)) return *shared;
  const obs::Trace::Scope span(obs::global_trace(), "dft.grid");
  return own.emplace(mol, basis, options.grid);
}

double homo_lumo_gap(const ScfResult& result, const chem::Molecule& mol) {
  const auto nocc = static_cast<std::size_t>(mol.num_electrons() / 2);
  if (nocc == 0 || nocc >= result.orbital_energies.size()) return 0.0;
  return result.orbital_energies[nocc] - result.orbital_energies[nocc - 1];
}

}  // namespace mthfx::scf
