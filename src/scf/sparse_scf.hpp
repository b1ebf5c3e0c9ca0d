#pragma once

// Near-linear RHF driver for large electrolyte boxes.
//
// Composition of the three sparsity levers this layer owns:
//  - one-electron matrices assembled over cell-list candidate pairs only
//    (ints::*_block over hfx::CellList), never the dense O(ns²) sweep;
//  - J/K from FockBuilder's task-bag build with the density-linked ket
//    walk of culled builders, incremental in ΔP as the density settles;
//  - no eigensolver anywhere: S^{-1/2} by Newton–Schulz and the density
//    update by TC2 purification (linalg/purify.hpp), both on block-sparse
//    matrices whose retained fraction falls with box size.
//
// It is the purification density step (scf/scf_loop.hpp) of the one SCF
// loop, selected by scf::rhf automatically when
// options.hfx.sparsity.blocked(nbf) holds; callers keep using rhf().
// The returned ScfResult carries energy/density/log but — by
// construction, no orbitals exist — empty coefficients and
// orbital_energies.

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "linalg/block_sparse.hpp"
#include "scf/rhf.hpp"

namespace mthfx::scf {

/// Observability of one sparse solve (per-iteration rows are in
/// ScfResult::log as usual).
struct SparseScfInfo {
  std::size_t nbf = 0;
  std::size_t num_pairs = 0;            ///< kept shell pairs (culled list)
  std::size_t pair_candidates = 0;      ///< cell-list proposals
  double one_electron_seconds = 0.0;    ///< culled S/T/V assembly
  double setup_seconds = 0.0;           ///< builder construction (pairs etc.)
  int ns_iterations = 0;                ///< Newton–Schulz steps for S^{-1/2}
  double ns_residual = 0.0;
  double density_nnz = 0.0;             ///< final density block-nnz fraction
  double fock_nnz = 0.0;                ///< final Fock block-nnz fraction
  int last_tc2_iterations = 0;
  double jk_seconds_total = 0.0;        ///< Σ blocked J/K build wall time
};

/// Closed-shell RHF with the blocked/purification pipeline. Honors every
/// ScfOptions field, including the recovery ladder and checkpoint/resume;
/// its checkpoints carry method "sparse_rhf", so they never resume the
/// dense path (nor a dense checkpoint this one).
ScfResult sparse_rhf(const chem::Molecule& mol, const chem::BasisSet& basis,
                     const ScfOptions& options = {},
                     SparseScfInfo* info = nullptr);

/// Contiguous partition of the basis dimension cut at shell boundaries,
/// each block holding ~target_nbf functions — the partition every
/// block-sparse matrix of one solve shares.
linalg::BlockPartition shell_aligned_partition(const chem::BasisSet& basis,
                                               std::size_t target_nbf);

}  // namespace mthfx::scf
