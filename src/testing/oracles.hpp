#pragma once

// Slow-but-obviously-correct reference implementations ("oracles") the
// production screened/threaded paths are differentially tested against.
// Nothing here screens, threads, or exploits permutational symmetry —
// each oracle is a direct transcription of the defining equations, which
// is exactly what makes disagreement with the fast path meaningful.

#include <cstddef>
#include <functional>
#include <vector>

#include "chem/basis.hpp"
#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/spin_functionals.hpp"
#include "dft/xc_integrator.hpp"
#include "ints/deriv.hpp"
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

/// Reference derivative ERIs of one shell quartet, g[center][dir] for
/// centers A, B, C as in ints::EriGradBlocks: per primitive quartet it
/// rebuilds raised ints::HermiteE tables for both pairs and an
/// ints::HermiteR tensor of order L+1, and evaluates every element of
/// every derivative as 2a (a+1|..) - i (a-1|..) with two full Hermite
/// sums. No primitive cutoff and nothing of ints::ShellPairDeriv, so the
/// production kernel is checked against the shift relation directly.
ints::EriGradBlocks reference_eri_gradient_blocks(const chem::Shell& a,
                                                  const chem::Shell& b,
                                                  const chem::Shell& c,
                                                  const chem::Shell& d);

struct DenseJk {
  linalg::Matrix j;
  linalg::Matrix k;
};

/// Every one of the ns^4 shell quartets (sa sb|sc sd), evaluated in its
/// requested shell order on one expansion per *ordered* shell pair (no
/// triangle sharing, no component swaps, no canonical-quartet shortcut),
/// one batched stream per bra pair. `visit` gets each block; returning
/// false stops the sweep.
void for_each_shell_quartet(
    const chem::BasisSet& basis,
    const std::function<bool(std::size_t sa, std::size_t sb, std::size_t sc,
                             std::size_t sd, const ints::EriBlock& block)>&
        visit);

/// Naive one-pass ERI tensor from for_each_shell_quartet. Index
/// ((mu*n+nu)*n+lam)*n+sig, chemists' notation.
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

/// Central-difference potentials of a closed-shell energy density e(rho,
/// sigma): v_x = [e(x + h) - e(x - h)] / 2h with h = 1e-6 |x| for x =
/// rho, sigma (a variable at zero keeps potential 0, since its step would
/// leave the domain). About 1e-10 relative precision away from zeros of
/// the potential. This is how dft::XcIntegrator once formed its
/// potentials, five functional calls per point; it is kept as the oracle
/// of the exact ones (dft::XcPoint).
dft::XcPoint central_difference_xc(
    const std::function<double(double rho, double sigma)>& energy, double rho,
    double sigma);

/// The same for a spin energy density, over (rho_a, rho_b, sigma_aa,
/// sigma_ab, sigma_bb), each with its own relative step 1e-6 |x|.
dft::SpinXcPoint central_difference_spin_xc(
    const std::function<double(const dft::SpinDensity&)>& energy,
    const dft::SpinDensity& d);

/// Unscreened closed-shell XC integration: at every grid point every AO
/// and its gradient come from BasisSet::evaluate_with_gradient, rho and
/// grad rho are full nao x nao contractions, the functional gives e and
/// its potentials, and V gets the symmetric rank-2 update over all AOs.
/// Nothing of the integrator's shell-screened AO table or its point
/// chunks is used, so its screening error shows up as a disagreement.
dft::XcResult dense_xc_reference(const chem::BasisSet& basis,
                                 const dft::MolecularGrid& grid,
                                 const dft::Functional& functional,
                                 const linalg::Matrix& density);

}  // namespace mthfx::testing
