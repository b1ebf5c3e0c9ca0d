#pragma once

// Two-electron repulsion integrals (ERIs) over shell quartets, evaluated
// with the McMurchie–Davidson Hermite scheme. This is the hot kernel the
// HFX layer parallelizes.
//
// The contracted-pair Hermite expansion (ShellPairHermite) depends only
// on the bra or ket shell pair, so callers that sweep many quartets (the
// Fock builder) precompute it once per significant pair and amortize it
// across every partner pair.
//
// The pair expansion is stored *sparse*: per Cartesian component, a
// compacted list of structurally nonzero (t,u,v) -> E entries (angular
// bounds t <= ax+bx etc. plus the same-center parity zeros), so the
// quartet kernel touches only real work. The quartet contraction is
// ordered ket-first: the Hermite Coulomb tensor R is contracted with
// each ket component's E-list into a panel indexed by the bra pair's
// union pattern (stage 1), and that panel is reused by every bra
// component (stage 2). The scalar kernel runs both stages per primitive
// quartet; the batched kernel folds all ket primitives of one bra
// primitive into the panel first, so its stage 2 runs once per bra
// primitive (see docs/hfx_scheme.md, "The ERI kernel").
//
// Two kernels read this layout: the scalar eri_shell_quartet below,
// which Schwarz bounds, eri_tensor and the shell-level API use, and the
// batched SIMD kernel (eri_batch.hpp), which the J/K build runs. The
// dense reference they are both tested against shares none of this
// code; it lives in src/testing (testing::DenseHermitePair).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chem/basis.hpp"

namespace mthfx::ints {

class BatchedEri;  // batched SIMD kernel implementation (eri_batch.cpp)

/// Largest per-center angular momentum the fixed-capacity kernels
/// support (f shells), and the largest combined Hermite order any
/// quartet's Coulomb tensor can reach.
inline constexpr int kEriMaxL = 3;
inline constexpr int kEriMaxTuv = 4 * kEriMaxL;

/// Primitive-combination truncation threshold of the ERI kernel: a
/// primitive quartet whose prefactor-weighted Hermite bound falls below
/// this is skipped. Anything the kernel reports is therefore only
/// accurate to ~(number of primitive combinations) x this value, and
/// consumers that build *bounds* from computed integrals (Schwarz) must
/// allow for that noise floor or they will under-bound.
inline constexpr double kEriPrimitiveCutoff = 1e-18;

/// Flattened (na x nb x nc x nd) block of (ab|cd) integrals in chemists'
/// notation, index ((i*nb + j)*nc + k)*nd + l.
struct EriBlock {
  std::size_t na = 0, nb = 0, nc = 0, nd = 0;
  std::vector<double> values;

  double operator()(std::size_t i, std::size_t j, std::size_t k,
                    std::size_t l) const {
    return values[((i * nb + j) * nc + k) * nd + l];
  }
};

/// One structurally nonzero Hermite expansion coefficient of one
/// Cartesian component: E(t,u,v) with the contraction/normalization
/// coefficient folded in.
struct HermiteEntry {
  double val = 0.0;       ///< coefficient-weighted E value (bra-side use)
  double sval = 0.0;      ///< val * (-1)^(t+u+v) (ket-side use)
  std::uint8_t t = 0, u = 0, v = 0;  ///< Hermite orders
  std::uint16_t upos = 0; ///< position in the pair's union pattern
};

/// A (t,u,v) coordinate of the pair-level union sparsity pattern.
struct HermiteCoord {
  std::uint8_t t = 0, u = 0, v = 0;
};

/// Precomputed coefficient-weighted Hermite expansion of one contracted
/// shell pair (all primitive pairs), compacted to structurally nonzero
/// entries. The same object feeds the scalar and the batched kernel;
/// structure_key() is what the batched kernel sorts lanes by.
class ShellPairHermite {
 public:
  ShellPairHermite(const chem::Shell& a, const chem::Shell& b);

  std::size_t num_functions_bra() const { return na_; }
  std::size_t num_functions_ket() const { return nb_; }
  int total_l() const { return lab_; }
  /// Size of the union sparsity pattern (<= (lab+1)^3; halved for
  /// same-center pairs by Hermite parity).
  std::size_t union_size() const { return union_coords_.size(); }
  /// FNV-1a hash of the pair's structural skeleton — angular class,
  /// primitive count, union pattern, per-component entry coordinates —
  /// but *not* coefficient values. Two pairs with equal skeletons (the
  /// batched kernel sorts by the key and verifies equality) can be
  /// evaluated in lockstep SIMD lanes.
  std::uint64_t structure_key() const { return structure_key_; }

 private:
  friend class BatchedEri;
  friend void eri_shell_quartet(const ShellPairHermite& bra,
                                const ShellPairHermite& ket, EriBlock& out);

  struct Prim {
    double p = 0.0;         // exponent sum
    chem::Vec3 center{};    // Gaussian product center
    double max_abs_e = 0.0; // largest |e| — primitive-level cutoff bound
    /// Compacted per-component entry lists, concatenated; component c
    /// owns entries [comp_begin[c], comp_begin[c+1]).
    std::vector<HermiteEntry> entries;
    std::vector<std::uint32_t> comp_begin;
  };

  int lab_ = 0;
  std::size_t na_ = 0, nb_ = 0, ncomp_ = 0;
  std::vector<chem::CartPowers> powers_a_, powers_b_;
  /// Union of the per-component sparsity patterns, in box-offset order;
  /// HermiteEntry::upos indexes into this.
  std::vector<HermiteCoord> union_coords_;
  std::vector<Prim> prims_;
  std::uint64_t structure_key_ = 0;
};

/// Compute one shell quartet from precomputed pair data into `out`
/// (buffers are reused across calls — the hot path never allocates once
/// capacities are warm). Scalar kernel: one quartet at a time.
void eri_shell_quartet(const ShellPairHermite& bra,
                       const ShellPairHermite& ket, EriBlock& out);

/// Convenience: compute one shell quartet (ab|cd) from shells.
EriBlock eri_shell_quartet(const chem::Shell& a, const chem::Shell& b,
                           const chem::Shell& c, const chem::Shell& d);

/// Full nao^4 tensor in chemists' notation (test/small-system use only).
/// Index ((mu*n + nu)*n + lam)*n + sig. Pair expansions are built for
/// the sa >= sb triangle only and reused for both bra orders.
std::vector<double> eri_tensor(const chem::BasisSet& basis);

}  // namespace mthfx::ints
