#pragma once

// Unrestricted Hartree–Fock for open-shell species. The Li/air chemistry
// the paper simulates runs through genuinely open-shell intermediates
// (LiO2 and superoxide radicals); UHF extends the HFX machinery to them.

#include "scf/rhf.hpp"

namespace mthfx::scf {

struct UhfOptions {
  std::size_t max_iterations = 200;
  double energy_tolerance = 1e-9;
  double diis_tolerance = 1e-6;
  bool use_diis = true;
  /// Start from the core-Hamiltonian guess with its alpha HOMO rotated
  /// toward the LUMO, instead of SAD, to let the SCF break spin symmetry
  /// (needed e.g. for stretched closed-shell bonds).
  bool break_symmetry = false;
  /// Fraction of the previous density mixed into each new density while
  /// the DIIS error is still above `damping_until`; stabilizes
  /// oscillation-prone open-shell systems.
  double density_damping = 0.35;
  double damping_until = 0.05;
  /// Raise virtual orbitals by this amount (Hartree) via
  /// F -> F + shift (S - S P S); breaks occupation flip-flopping in
  /// near-degenerate open shells. 0 disables.
  double level_shift = 0.0;
  hfx::HfxOptions hfx;
  RecoveryOptions recovery;  ///< divergence detection / escalation

  /// Resume from a "uhf" checkpoint (densities, energy, DIIS history;
  /// see docs/resilience.md for what is and is not restored).
  std::shared_ptr<const fault::ScfCheckpoint> resume;
  /// Called with end-of-iteration state every `checkpoint_every` cycles.
  std::function<void(const fault::ScfCheckpoint&)> checkpoint_sink;
  std::size_t checkpoint_every = 1;
  /// Cooperative cancellation, polled at each iteration (see
  /// fault/cancel.hpp); the engine's deadline watchdog arms it.
  std::shared_ptr<const fault::CancelToken> cancel;
};

struct UhfResult {
  bool converged = false;
  double energy = 0.0;
  double nuclear_repulsion = 0.0;
  std::size_t iterations = 0;
  /// <S^2> expectation (exact value is S(S+1); excess = contamination).
  double s_squared = 0.0;
  linalg::Matrix density_alpha;  ///< P_a = C_a C_a^T (no factor 2)
  linalg::Matrix density_beta;
  linalg::Vector orbital_energies_alpha;
  linalg::Vector orbital_energies_beta;
  linalg::Matrix coefficients_alpha;
  linalg::Matrix coefficients_beta;
  /// Per-iteration energy/ΔE/DIIS-error/timing rows (same shape as RHF;
  /// quartets_computed sums both spin-channel builds).
  std::vector<ScfIterationLog> log;
  ScfDiagnostics diagnostics;  ///< recovery-ladder post-mortem

  linalg::Matrix total_density() const {
    return density_alpha + density_beta;
  }
  linalg::Matrix spin_density() const {
    return density_alpha - density_beta;
  }
};

/// Run UHF with `multiplicity` = 2S+1 (1 = singlet, 2 = doublet, ...).
/// Throws std::invalid_argument when the electron count and multiplicity
/// are inconsistent.
UhfResult uhf(const chem::Molecule& mol, const chem::BasisSet& basis,
              int multiplicity, const UhfOptions& options = {});

}  // namespace mthfx::scf
