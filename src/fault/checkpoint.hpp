#pragma once

// Checkpoint/restart state for the SCF drivers and the BOMD integrator,
// serialized to JSON through obs::Json. Doubles round-trip bit-for-bit
// (the emitter writes shortest-round-trip decimals, the parser reads
// them back with strtod), so a resumed deterministic run reproduces the
// uninterrupted run's trajectory exactly. Format: docs/resilience.md.

#include <string>
#include <vector>

#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"
#include "obs/json.hpp"

namespace mthfx::fault {

/// SCF restart state. `density` (+ the alpha/beta split for open-shell)
/// and the DIIS history are enough to resume the fixed-point iteration
/// mid-flight; `j`/`k`/`density_prev` carry the incremental-Fock state
/// so an rhf/sparse_rhf resume stays bit-for-bit with the uninterrupted
/// run.
struct ScfCheckpoint {
  /// "rhf" | "uhf" | "rks" | "uks" | "sparse_rhf"; each entry point
  /// resumes only its own.
  std::string method;
  std::size_t iteration = 0;
  double energy = 0.0;
  linalg::Matrix density;
  linalg::Matrix density_beta;  ///< open-shell only (empty otherwise)
  // Incremental-Fock state (rhf/sparse_rhf with incremental_fock on;
  // empty otherwise).
  linalg::Matrix density_prev;
  linalg::Matrix j;
  linalg::Matrix k;
  /// The incremental path's near-convergence switch to full builds (see
  /// scf/scf_loop.cpp); must survive a restart or the resumed run
  /// re-enters incremental mode and diverges bit-wise from the
  /// uninterrupted one.
  bool force_full_builds = false;
  // DIIS history (parallel vectors of Fock and error matrices); the
  // *_beta lists carry the second spin channel for uhf/uks.
  std::vector<linalg::Matrix> diis_focks;
  std::vector<linalg::Matrix> diis_errors;
  std::vector<linalg::Matrix> diis_focks_beta;
  std::vector<linalg::Matrix> diis_errors_beta;

  friend bool operator==(const ScfCheckpoint&, const ScfCheckpoint&) =
      default;
};

/// BOMD restart state: positions, velocities, and the frame index are
/// the full dynamical state of a velocity-Verlet trajectory.
struct MdCheckpoint {
  std::size_t frame_index = 0;  ///< frames [0, frame_index] already done
  double time_fs = 0.0;
  chem::Molecule geometry;
  std::vector<chem::Vec3> velocities;
  double initial_total_energy = 0.0;  ///< drift reference from frame 0

  friend bool operator==(const MdCheckpoint&, const MdCheckpoint&) = default;
};

obs::Json to_json(const ScfCheckpoint& ckpt);
obs::Json to_json(const MdCheckpoint& ckpt);

/// Geometry round-trip ({"charge", "atoms": [{"z", "pos"}]}) shared with
/// the engine's write-ahead journal, which must persist full job inputs.
/// Doubles survive bit-for-bit through obs::Json.
obs::Json molecule_to_json(const chem::Molecule& mol);
chem::Molecule molecule_from_json(const obs::Json& j);

/// Throws std::invalid_argument on schema mismatch (wrong "kind",
/// missing fields, inconsistent dimensions).
ScfCheckpoint scf_checkpoint_from_json(const obs::Json& j);
MdCheckpoint md_checkpoint_from_json(const obs::Json& j);

/// File helpers; save writes through fault::atomic_write_file (a crash
/// leaves the old file or the new one, never a torn one) and throws
/// std::runtime_error on I/O failure. load dispatches on the
/// checkpoint's "kind" field via the accessors below.
void save_checkpoint(const std::string& path, const ScfCheckpoint& ckpt);
void save_checkpoint(const std::string& path, const MdCheckpoint& ckpt);

/// Reads the file and returns the parsed JSON document (callers inspect
/// `kind` then call the matching *_from_json).
obs::Json load_checkpoint_json(const std::string& path);

/// "scf", "md", or "" when the document has no kind member.
std::string checkpoint_kind(const obs::Json& j);

}  // namespace mthfx::fault
