#pragma once

// Metamorphic invariant checks for generated inputs. Each check returns
// an InvariantResult: ok plus a human-readable detail string naming the
// first violation, so property-test failures print what broke, not just
// that something did.

#include <cstddef>
#include <string>
#include <vector>

#include "chem/basis.hpp"
#include "hfx/fock_builder.hpp"
#include "linalg/matrix.hpp"
#include "testing/rng.hpp"

namespace mthfx::testing {

struct InvariantResult {
  bool ok = true;
  std::string detail;  ///< empty when ok
};

/// ERI 8-fold permutational symmetry, checked through the *shell-level*
/// API on `samples` randomly drawn shell quartets (each permuted block
/// is an independent evaluation, so bra/ket and in-pair swaps are all
/// exercised, not just index relabeling of one tensor).
InvariantResult check_eri_permutation_symmetry(const chem::BasisSet& basis,
                                               Rng& rng, std::size_t samples,
                                               double tol = 1e-11);

/// Schwarz inequality max|(ab|cd)| <= Q_ab * Q_cd over every shell
/// quartet (full sweep, one batched stream per bra pair; intended for
/// the small generated systems), with Q from ints::schwarz_bounds — the
/// bounds and the integrals both from the kernel J/K runs — up
/// to the ERI kernel's primitive-truncation noise: each pair's computed
/// diagonal (ab|ab) may sit below the true one by as much as
/// (nprim_a*nprim_b)^2 * kEriPrimitiveCutoff, and the cross integral
/// may exceed its true value by the combos the kernel skipped, so the
/// check compares against sqrt(Q_ab^2 + noise_ab) * sqrt(Q_cd^2 +
/// noise_cd) + cross-truncation — a bound derived from the cutoff, not
/// tuned. `rel_slack` absorbs last-ulp rounding in the product.
InvariantResult check_schwarz_bound(const chem::BasisSet& basis,
                                    double rel_slack = 1e-12);

/// Hermiticity: max |A - A^T| <= tol.
InvariantResult check_hermitian(const linalg::Matrix& a, double tol,
                                const std::string& label);

/// Rigorous bound on the K (or J) error introduced by screening: every
/// neglected shell quartet contributes at most eps_schwarz (bare prune)
/// or eps_schwarz (density prune, by construction Q*Q*pmax < eps) to any
/// single matrix element, and each element can receive at most one
/// contribution per neglected quartet per orbit member (8). The
/// contribution cutoff adds computed * block^2 * cutoff * pmax on top.
double screening_error_bound(const hfx::HfxStats& stats,
                             const hfx::HfxOptions& options, double pmax,
                             std::size_t max_block = 16);

}  // namespace mthfx::testing
