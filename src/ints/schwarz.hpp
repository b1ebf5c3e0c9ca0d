#pragma once

// Schwarz (Cauchy–Schwarz) screening bounds:
//   |(ab|cd)| <= sqrt((ab|ab)) * sqrt((cd|cd)).
// The per-shell-pair bound Q_ab = max over components of sqrt((ab|ab))
// is the first screening stage of the HFX build and of the paper's
// "highly controllable" accuracy knob. The diagonals come from the
// batched kernel the J/K build runs, on the pair expansions it uses, so
// every bound is a bound on the integrals J/K actually compute.

#include <cstddef>
#include <span>

#include "chem/basis.hpp"
#include "ints/eri.hpp"
#include "linalg/matrix.hpp"

namespace mthfx::ints {

/// q[i] = sqrt(max over components of (ab|ab)) for pairs[i], all
/// diagonals evaluated in one batched kernel call. Returns how many
/// diagonals underflowed to the noise floor.
///
/// A floored bound q ≈ sqrt(noise) is an *overestimate* of the true
/// diagonal, so keeping the pair under the eps rule is conservative —
/// and necessary: the pair's cross quartets (ab|cd) with a strong
/// partner survive the kernel's primitive cutoff at the sqrt(noise)·q_cd
/// scale even though every term of (ab|ab) truncates. The pair-list
/// build (hfx/shell_pairs.hpp) drops a pair outright only when it is
/// beyond summed extent radii (hfx/cell_list.hpp), where the
/// Gaussian-product factor kills every partner combination.
std::size_t schwarz_bounds(std::span<const ShellPairHermite> pairs,
                           double* q);

/// Q(sa, sb) as above for every shell pair, a symmetric
/// (num_shells x num_shells) table; entry (sa, sb) is evaluated on the
/// (max, min) pair expansion, the order the J/K build uses. O(ns²)
/// pairs: an oracle for tests and benches, not a production path.
linalg::Matrix schwarz_bounds(const chem::BasisSet& basis);

}  // namespace mthfx::ints
