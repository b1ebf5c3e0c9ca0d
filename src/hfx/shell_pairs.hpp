#pragma once

// Significant shell-pair list: the compressed bra/ket space over which
// quartet tasks are generated. A pair (sa >= sb) is significant when its
// Schwarz bound could combine with the best partner pair to exceed the
// screening threshold — everything else can never contribute an integral
// above eps and is dropped up front.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chem/basis.hpp"
#include "ints/schwarz.hpp"
#include "linalg/matrix.hpp"

namespace mthfx::hfx {

struct ShellPair {
  std::uint32_t sa = 0;  ///< shell index, sa >= sb
  std::uint32_t sb = 0;
  double q = 0.0;        ///< Schwarz bound sqrt(max (ab|ab))
};

/// Pair-formation statistics of the distance-culled build (zero for the
/// dense build).
struct PairCullStats {
  std::size_t candidates = 0;  ///< pairs the cell list proposed
  std::size_t floored = 0;     ///< candidates whose (ab|ab) underflowed
                               ///< (kept, subject to the eps rule)
};

class ShellPairList {
 public:
  /// Build from precomputed Schwarz bounds. Pairs with
  /// q(sa,sb) * max_q < eps are discarded, as are pairs beyond summed
  /// extent radii (hfx/cell_list.hpp): past that range the
  /// Gaussian-product factor is e^{-kExtentLogSlack} below every scale
  /// the kernel resolves for any partner, yet the pair's *stored* bound
  /// sits at the underflow noise floor (ints/schwarz.hpp) and would
  /// clear the eps rule on noise alone. In-range pairs whose diagonal
  /// underflowed are kept under the plain eps rule — their cross
  /// quartets with strong partners are real at the sqrt(noise)·max_q
  /// scale, which tight-eps builds must resolve.
  ShellPairList(const chem::BasisSet& basis, const linalg::Matrix& schwarz,
                double eps);

  /// Distance-culled build: enumerate only cell-list candidates (shells
  /// within summed extent radii — hfx/cell_list.hpp), compute the exact
  /// Schwarz bound per candidate, and apply the same q * max_q >= eps
  /// rule as the dense build. The result is pair-for-pair identical to
  /// the dense constructor: both drop exactly the beyond-range pairs
  /// (the dense sweep by the explicit within_extent_range test, this
  /// build by never enumerating them) and both keep in-range candidates
  /// under the eps rule with bounds from the same kernel and operand
  /// order. max_q matches the dense build: beyond-range bounds sit at
  /// the noise scale, far below any compact pair's bound.
  static ShellPairList culled(const chem::BasisSet& basis, double eps,
                              PairCullStats* stats = nullptr);

  const std::vector<ShellPair>& pairs() const { return pairs_; }
  std::size_t size() const { return pairs_.size(); }
  const ShellPair& operator[](std::size_t i) const { return pairs_[i]; }

  /// Largest Schwarz bound over all pairs.
  double max_q() const { return max_q_; }

  /// Number of pairs before screening: nshell*(nshell+1)/2.
  std::size_t unscreened_count() const { return unscreened_; }

  /// End of bra pair b's Schwarz-live ket prefix: the first k <= b with
  /// q_b * q_k < eps, or b + 1 if there is none (always when eps <= 0).
  /// The descending-q sort makes every ket past it fail too, so this is
  /// a binary search.
  std::size_t live_end(std::size_t b, double eps) const;

 private:
  ShellPairList() = default;

  std::vector<ShellPair> pairs_;
  double max_q_ = 0.0;
  std::size_t unscreened_ = 0;
};

}  // namespace mthfx::hfx
