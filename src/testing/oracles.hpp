#pragma once

// Slow-but-obviously-correct reference implementations ("oracles") the
// production screened/threaded paths are differentially tested against.
// Nothing here screens, threads, or exploits permutational symmetry —
// each oracle is a direct transcription of the defining equations, which
// is exactly what makes disagreement with the fast path meaningful.

#include <cstddef>
#include <vector>

#include "chem/basis.hpp"
#include "ints/eri.hpp"
#include "linalg/matrix.hpp"

namespace mthfx::testing {

/// Dense McMurchie–Davidson expansion of one contracted shell pair in the
/// pre-optimization layout: per primitive pair, a [component][t][u][v]
/// box of coefficient-weighted Hermite E values, (lab+1)^3 slots per
/// component with every slot kept. Built from the shells with the public
/// ints::HermiteE and nothing of the production pair data
/// (ints::ShellPairHermite), so an error in the production expansion
/// shows up as a disagreement instead of being copied.
struct DenseHermitePair {
  DenseHermitePair(const chem::Shell& a, const chem::Shell& b);

  struct Prim {
    double p = 0.0;       ///< exponent sum
    chem::Vec3 center{};  ///< Gaussian product center
    std::vector<double> box;
  };
  int lab = 0;
  std::vector<chem::CartPowers> powers_a, powers_b;
  std::vector<Prim> prims;
};

/// Reference quartet kernel over dense pairs: the textbook Hermite
/// contraction sum_{tuv} E^bra sum_{t'u'v'} (-1)^{t'+u'+v'} E^ket
/// R_{t+t',u+u',v+v'}, with an ints::HermiteR tensor per primitive
/// quartet and no primitive cutoff. Writes the layout of
/// ints::eri_shell_quartet.
void dense_reference_quartet(const DenseHermitePair& bra,
                             const DenseHermitePair& ket,
                             ints::EriBlock& out);

struct DenseJk {
  linalg::Matrix j;
  linalg::Matrix k;
};

/// Naive one-pass ERI tensor: every one of the ns^4 shell quartets is
/// evaluated independently through the shell-level API (no pair-data
/// reuse, no canonical-quartet shortcut). Index ((mu*n+nu)*n+lam)*n+sig,
/// chemists' notation.
std::vector<double> naive_eri_tensor(const chem::BasisSet& basis);

/// Unscreened O(N^4) J/K contraction of a full ERI tensor:
///   J_mn = sum_ls P_ls (mn|ls),   K_mn = sum_ls P_ls (ml|ns).
/// `tensor` must be an nao^4 chemists'-notation tensor for `basis`.
DenseJk contract_jk(const chem::BasisSet& basis,
                    const std::vector<double>& tensor,
                    const linalg::Matrix& density);

/// Convenience: naive tensor + dense contraction in one call.
DenseJk dense_jk_reference(const chem::BasisSet& basis,
                           const linalg::Matrix& density);

/// Serial canonical-quartet J/K with *explicit* orbit deduplication: for
/// each canonical AO quartet the 8 index permutations are enumerated,
/// duplicates removed with a set, and the plain per-permutation update
/// applied. Cross-checks the coincidence-flag logic in digest_quartet
/// without sharing any of it. `tensor` as in contract_jk.
DenseJk orbit_jk_reference(const chem::BasisSet& basis,
                           const std::vector<double>& tensor,
                           const linalg::Matrix& density);

/// Serial in-order reduction of per-thread partial matrices — the
/// reference for any tree/parallel reduction of accumulators.
linalg::Matrix serial_reduce(const std::vector<linalg::Matrix>& parts);

/// Independent Coulomb energy 0.5 * sum_{mnls} P_mn P_ls (mn|ls) straight
/// from the tensor (no J matrix formed) — scalar anchor for trace
/// identities.
double coulomb_energy_from_tensor(const chem::BasisSet& basis,
                                  const std::vector<double>& tensor,
                                  const linalg::Matrix& density);

/// Independent exchange contraction 0.5 * sum_{mnls} P_mn P_ls (ml|ns)
/// from the tensor (no K matrix formed). Equals 0.5 * tr(P K).
double exchange_energy_from_tensor(const chem::BasisSet& basis,
                                   const std::vector<double>& tensor,
                                   const linalg::Matrix& density);

}  // namespace mthfx::testing
