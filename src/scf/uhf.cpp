// The open-shell entry points (uhf, uks): thin wrappers over the one SCF
// loop in scf/scf_loop.hpp, with alpha and beta channels.

#include "scf/uhf.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "dft/spin_functionals.hpp"
#include "obs/trace.hpp"
#include "scf/rks.hpp"
#include "scf/scf_loop.hpp"
#include "scf/uks.hpp"

namespace mthfx::scf {

namespace {

// N_a and N_b from the multiplicity, with UhfOptions' mitigations.
detail::LoopSpec open_shell_spec(const char* method, const chem::Molecule& mol,
                                 int multiplicity, const UhfOptions& options) {
  const int nelec = mol.num_electrons();
  const int nopen = multiplicity - 1;
  if (nopen < 0 || (nelec - nopen) % 2 != 0 || nelec < nopen)
    throw std::invalid_argument(
        std::string(method) +
        ": electron count inconsistent with multiplicity");
  const auto nb = static_cast<std::size_t>((nelec - nopen) / 2);
  detail::LoopSpec spec;
  spec.method = method;
  spec.nocc = {nb + static_cast<std::size_t>(nopen), nb};
  spec.nuclear_repulsion = mol.nuclear_repulsion();
  spec.density_damping = options.density_damping;
  spec.damping_until = options.damping_until;
  spec.level_shift = options.level_shift;
  return spec;
}

// The UhfOptions fields the loop reads, as ScfOptions.
ScfOptions loop_options(const UhfOptions& options) {
  ScfOptions out;
  out.max_iterations = options.max_iterations;
  out.energy_tolerance = options.energy_tolerance;
  out.diis_tolerance = options.diis_tolerance;
  out.use_diis = options.use_diis;
  out.hfx = options.hfx;
  out.recovery = options.recovery;
  out.resume = options.resume;
  out.checkpoint_sink = options.checkpoint_sink;
  out.checkpoint_every = options.checkpoint_every;
  out.cancel = options.cancel;
  return out;
}

UhfResult open_shell_result(detail::LoopResult&& r) {
  UhfResult out;
  out.converged = r.scf.converged;
  out.energy = r.scf.energy;
  out.nuclear_repulsion = r.scf.nuclear_repulsion;
  out.iterations = r.scf.iterations;
  out.s_squared = r.s_squared;
  out.density_alpha = std::move(r.scf.density);
  out.density_beta = std::move(r.beta.density);
  out.orbital_energies_alpha = std::move(r.scf.orbital_energies);
  out.orbital_energies_beta = std::move(r.beta.orbital_energies);
  out.coefficients_alpha = std::move(r.scf.coefficients);
  out.coefficients_beta = std::move(r.beta.coefficients);
  out.log = std::move(r.scf.log);
  out.diagnostics = std::move(r.scf.diagnostics);
  return out;
}

// Alpha and beta core-Hamiltonian guesses: the lowest states of H, with
// the alpha HOMO rotated toward the LUMO when `rotate` is set.
std::vector<linalg::Matrix> core_guess(detail::DensityStep& step,
                                       std::size_t na, std::size_t nb,
                                       bool rotate) {
  const linalg::Matrix& h = step.core_hamiltonian();
  OrbitalSolution alpha = step.update(h, na, 1.0);
  if (rotate) {
    linalg::Matrix& ca = alpha.coefficients;
    const std::size_t homo = na - 1, lumo = na;
    const double c = std::cos(0.25 * M_PI / 2.0), sn = std::sin(0.25 * M_PI / 2.0);
    for (std::size_t i = 0; i < ca.rows(); ++i) {
      const double vh = ca(i, homo), vl = ca(i, lumo);
      ca(i, homo) = c * vh + sn * vl;
      ca(i, lumo) = -sn * vh + c * vl;
    }
    alpha.density = occupied_density(ca, na, 1.0);
  }
  return {std::move(alpha.density), step.update(h, nb, 1.0).density};
}

// Half the SAD density per spin channel.
std::vector<linalg::Matrix> sad_spin_guess(const chem::BasisSet& basis,
                                           const chem::Molecule& mol) {
  const linalg::Matrix half = 0.5 * sad_guess_density(basis, mol);
  return {half, half};
}

// uhf from SAD, or from the core guess when `core` is set or the caller
// asks for the symmetry-broken start.
UhfResult run_uhf(const chem::Molecule& mol, const chem::BasisSet& basis,
                  int multiplicity, const UhfOptions& options, bool core) {
  const obs::Trace::Scope scf_span(obs::global_trace(), "scf.uhf");
  detail::LoopSpec spec = open_shell_spec("uhf", mol, multiplicity, options);
  const auto step =
      detail::diagonalize_step(mol, basis, options.hfx, nullptr, "uhf");
  {
    const obs::Trace::Scope guess_span(obs::global_trace(), "scf.guess");
    const bool rotate =
        options.break_symmetry && spec.nocc[0] < basis.num_functions();
    spec.guess = core || rotate ? core_guess(*step, spec.nocc[0],
                                             spec.nocc[1], rotate)
                                : sad_spin_guess(basis, mol);
  }
  return open_shell_result(
      detail::run_scf(spec, loop_options(options), *step));
}

}  // namespace

UhfResult uhf(const chem::Molecule& mol, const chem::BasisSet& basis,
              int multiplicity, const UhfOptions& options) {
  return run_uhf(mol, basis, multiplicity, options, false);
}

UhfResult detail::uhf_from_core_guess(const chem::Molecule& mol,
                                      const chem::BasisSet& basis,
                                      int multiplicity,
                                      const UhfOptions& options) {
  return run_uhf(mol, basis, multiplicity, options, true);
}

UksResult uks(const chem::Molecule& mol, const chem::BasisSet& basis,
              int multiplicity, const UksOptions& options) {
  const obs::Trace::Scope scf_span(obs::global_trace(), "scf.uks");
  detail::LoopSpec spec =
      open_shell_spec("uks", mol, multiplicity, options.scf);
  const dft::SpinFunctional functional =
      dft::make_spin_functional(options.functional);
  spec.ax = functional.exact_exchange;
  const auto step =
      detail::diagonalize_step(mol, basis, options.scf.hfx, nullptr, "uks");
  {
    const obs::Trace::Scope guess_span(obs::global_trace(), "scf.guess");
    spec.guess = sad_spin_guess(basis, mol);
  }

  std::optional<KsGrid> grid;
  if (options.functional != "hf") {
    const dft::XcIntegrator& xc = grid.emplace(mol, basis, options.grid).xc();
    spec.xc = [&](const std::vector<detail::Channel>& ch) {  // as in rks
      dft::XcSpinResult r = xc.integrate_spin(functional, ch[0].p, ch[1].p,
                                              &step->builder().pool());
      return detail::XcTerm{r.energy, r.integrated_density,
                            {std::move(r.v_alpha), std::move(r.v_beta)}};
    };
  }

  detail::LoopResult r = detail::run_scf(spec, loop_options(options.scf), *step);
  UksResult out;
  out.xc_energy = r.xc_energy;
  out.exact_exchange_energy = r.scf.exchange_energy;
  out.integrated_density = r.integrated_density;
  out.scf = open_shell_result(std::move(r));
  return out;
}

}  // namespace mthfx::scf
