#pragma once

// Restricted Hartree–Fock with DIIS and optional incremental Fock builds.
//
// The HFX kernel enters through hfx::FockBuilder; as the density settles,
// the incremental (ΔP) build plus density screening makes late SCF
// iterations progressively cheaper — one of the paper's efficiency levers.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "fault/cancel.hpp"
#include "fault/checkpoint.hpp"
#include "hfx/fock_builder.hpp"
#include "linalg/matrix.hpp"
#include "scf/recovery.hpp"

namespace mthfx::scf {

struct ScfOptions {
  std::size_t max_iterations = 100;
  double energy_tolerance = 1e-9;    ///< |dE| between iterations
  double diis_tolerance = 1e-7;      ///< max |FPS - SPF| for convergence
  bool use_diis = true;
  /// Build J/K from ΔP = P - P_built when possible, with a full build
  /// every `full_rebuild_every` iterations and for every iteration once
  /// the DIIS error is inside tolerance. Honoured by rhf and sparse_rhf;
  /// rks, uhf and uks always build in full. Turning it off slowed the
  /// bench/suite box_sparse solve on every seed tried (seeds 1-4:
  /// 1.43→1.76, 1.47→1.96, 1.74→1.95, 1.91→2.68 s).
  bool incremental_fock = true;
  std::size_t full_rebuild_every = 20;
  hfx::HfxOptions hfx;               ///< screening/schedule of the JK builds
  RecoveryOptions recovery;          ///< divergence detection / escalation

  /// Resume mid-solve from a checkpoint (see docs/resilience.md). With a
  /// deterministic build (single thread or static schedule) the resumed
  /// run reproduces the uninterrupted run's energies bit-for-bit.
  std::shared_ptr<const fault::ScfCheckpoint> resume;
  /// Called with the end-of-iteration state every `checkpoint_every`
  /// iterations (callers persist it via fault::save_checkpoint).
  std::function<void(const fault::ScfCheckpoint&)> checkpoint_sink;
  std::size_t checkpoint_every = 1;

  /// Cooperative cancellation, polled once per SCF iteration by the loop
  /// behind every entry point (scf/scf_loop.hpp). An armed token makes
  /// the solve throw fault::Cancelled at the next iteration boundary —
  /// after the latest checkpoint, so a
  /// cancelled job resumes instead of restarting. Used by the engine's
  /// deadline watchdog to reclaim hung/overdue jobs.
  std::shared_ptr<const fault::CancelToken> cancel;

  /// Warm-start density guess replacing the cold SAD guess
  /// (scf::sad_guess_density) of rhf, rks and sparse_rhf.
  /// The MD surface feeds extrapolated previous-step densities through
  /// here so mid-trajectory solves converge in a few iterations. Throws
  /// std::invalid_argument on a dimension mismatch with the basis.
  std::shared_ptr<const linalg::Matrix> initial_density;

  /// Non-owning: reuse this prebuilt FockBuilder (its basis must be the
  /// exact BasisSet object passed to the solve — rebind it first when the
  /// geometry changed). Skips Schwarz/pair/Hermite setup per solve, and
  /// its pool runs the solve's threads; the MD surface shares one builder
  /// (and so one pool) across a whole trajectory.
  hfx::FockBuilder* shared_builder = nullptr;
};

struct ScfIterationLog {
  double energy = 0.0;
  double delta_e = 0.0;
  double diis_error = 0.0;
  std::uint64_t quartets_computed = 0;
  double seconds = 0.0;     ///< iteration wall time (build through DIIS)
  double jk_seconds = 0.0;  ///< J/K build wall time within the iteration
  /// Recovery ladder stage active during this iteration
  /// (static_cast of scf::RecoveryStage).
  std::uint32_t recovery_stage = 0;
};

/// Per-iteration convergence/timing rows as a JSON array — the
/// machine-readable companion to the SCF convergence table.
obs::Json scf_log_to_json(const std::vector<ScfIterationLog>& log);

struct ScfResult {
  bool converged = false;
  double energy = 0.0;               ///< total (electronic + nuclear)
  double nuclear_repulsion = 0.0;
  double one_electron_energy = 0.0;
  double coulomb_energy = 0.0;
  double exchange_energy = 0.0;      ///< HFX part (scaled by hybrid weight)
  std::size_t iterations = 0;
  linalg::Matrix density;
  linalg::Matrix coefficients;
  linalg::Vector orbital_energies;
  std::vector<ScfIterationLog> log;
  /// What the recovery ladder saw and did; failure_reason is set when the
  /// solve was abandoned (e.g. non-finite at the top of the ladder).
  ScfDiagnostics diagnostics;
};

/// Run closed-shell RHF. Throws std::invalid_argument for odd electron
/// counts.
ScfResult rhf(const chem::Molecule& mol, const chem::BasisSet& basis,
              const ScfOptions& options = {});

/// HOMO-LUMO gap in Hartree (0 when no virtual orbital exists).
double homo_lumo_gap(const ScfResult& result, const chem::Molecule& mol);

}  // namespace mthfx::scf
