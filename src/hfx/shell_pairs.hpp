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

namespace mthfx::hfx {

struct ShellPair {
  std::uint32_t sa = 0;  ///< shell index, sa >= sb
  std::uint32_t sb = 0;
  double q = 0.0;        ///< Schwarz bound sqrt(max (ab|ab))
};

/// Pair-formation statistics of the distance-culled build.
struct PairCullStats {
  std::size_t candidates = 0;  ///< pairs the cell list proposed
  std::size_t floored = 0;     ///< candidates whose (ab|ab) underflowed
                               ///< (kept, subject to the eps rule)
};

class ShellPairList {
 public:
  /// The one pair-list build. Enumerates only cell-list candidates
  /// (shells within summed extent radii — hfx/cell_list.hpp), then keeps
  /// the candidates with q * max_q >= eps, max_q the largest candidate
  /// bound. Per candidate row sa it expands one ints::ShellPairHermite
  /// per candidate (sa, sb <= sa), the operand order the J/K build uses,
  /// and evaluates the row's (ab|ab) diagonals in one batched kernel
  /// call (ints::schwarz_bounds); the row's expansions are freed before
  /// the next row. Pairs beyond summed extent radii are never touched:
  /// there the Gaussian-product factor is e^{-kExtentLogSlack} below
  /// every scale the kernel resolves for any partner, yet the pair's
  /// bound would sit at the underflow noise floor (ints/schwarz.hpp) and
  /// clear the eps rule on noise alone. In-range pairs whose diagonal
  /// underflowed stay under the plain eps rule — their cross quartets
  /// with strong partners are real at the sqrt(noise)·max_q scale, which
  /// tight-eps builds must resolve. Pairs are sorted by descending q.
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
