#pragma once

// Screened contraction of derivative ERIs with the two-particle density —
// the two-electron term of the analytic RHF/RKS nuclear gradient.
//
// dE2/dR = 1/2 sum_{unique quartets} deg * Gamma_{munu,lamsig} *
//          d(mu nu|lam sig)/dR, with the orbit-symmetric two-particle
// density for a hybrid exchange fraction ax:
//     Gamma = P_munu P_lamsig - (ax/4) (P_mulam P_nusig + P_musig P_nulam).
// The quartet stream is the same canonical (bra pair >= ket pair) walk the
// FockBuilder screens: each bra row runs over its Schwarz-live ket prefix
// (ShellPairList::live_end against eps_grad / max|Gamma|), and each
// quartet must also pass a density-weighted bound, both against a
// gradient threshold derived from eps_schwarz. Each call builds one
// ints::ShellPairDeriv per pair, and ints::eri_gradient_quartet gives the
// derivative blocks for the three independent centers; the fourth center
// follows from translational invariance.
//
// Threads: parallel::cut_chunks cuts the rows into runs of consecutive
// rows of near-equal live ket count, and parallel::run_chunks runs them:
// pool threads claim chunks dynamically, each chunk sums into its own
// natoms x 3 partial, and the partials merge along parallel::TreeMerge's
// fixed tree, so the gradient is bit-identical for any pool size. The
// pool overload runs on the caller's pool (ks_gradient passes the bound
// FockBuilder's); the num_threads overloads start a pool per call.

#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "hfx/shell_pairs.hpp"
#include "linalg/matrix.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::hfx {

struct GradContractionOptions {
  double ax = 1.0;             ///< exact-exchange fraction (1 = RHF, 0.25 = PBE0)
  double eps_schwarz = 1e-12;  ///< quartet neglect threshold (pre-density)
  /// Threads of the per-call pool (0 selects hardware concurrency); the
  /// pool overload ignores it.
  std::size_t num_threads = 0;
  /// Safety margin applied below eps_schwarz: derivative integrals are not
  /// strictly bounded by the value-integral Schwarz product, so quartets
  /// are kept down to eps_schwarz * safety.
  double safety = 1e-2;
};

/// Two-electron gradient dE2/dR per atom over a prebuilt pair list
/// (reuse the FockBuilder's list across calls when available), run on
/// `pool`.
std::vector<chem::Vec3> two_electron_gradient(
    const chem::BasisSet& basis, const ShellPairList& pairs,
    const linalg::Matrix& density, const GradContractionOptions& options,
    parallel::ThreadPool& pool);

/// Same, on a pool of options.num_threads started for this call.
std::vector<chem::Vec3> two_electron_gradient(
    const chem::BasisSet& basis, const ShellPairList& pairs,
    const linalg::Matrix& density, const GradContractionOptions& options);

/// Convenience overload that builds its own Schwarz table and pair list.
std::vector<chem::Vec3> two_electron_gradient(
    const chem::BasisSet& basis, const linalg::Matrix& density,
    const GradContractionOptions& options);

}  // namespace mthfx::hfx
