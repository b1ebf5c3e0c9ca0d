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
// Every pair of one angular class (la, lb) is stored in one static
// layout, the class skeleton (PairSkeleton, built once per process):
// per Cartesian component, the (t,u,v) -> E entries a pair with distinct
// centres and distinct exponents has (t <= ax+bx etc.), indexed into the
// class's union pattern. A pair keeps only per-primitive values in that
// layout; slots that same-centre or equal-exponent parity empties hold
// exact zeros. Pairs of one class and primitive count therefore share
// all control flow and run in lockstep SIMD lanes. The quartet
// contraction is ordered ket-first: the Hermite Coulomb tensor R is
// contracted with each ket component's entries into a panel indexed by
// the bra class's union pattern (stage 1), and that panel is reused by
// every bra component (stage 2). The kernel folds all ket primitives of
// one bra primitive into the panel first, so stage 2 runs once per bra
// primitive (see docs/hfx_scheme.md, "The ERI kernel").
//
// One kernel reads this layout: the batched SIMD kernel (eri_batch.hpp).
// The J/K build, the Schwarz bounds (schwarz.hpp) and the shell-level
// API below all run it. The dense reference it is tested against shares
// none of this code; it lives in src/testing (testing::DenseHermitePair).

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

/// One entry of a class skeleton: the Hermite orders of one E(t,u,v)
/// slot of one Cartesian component.
struct HermiteEntry {
  std::uint8_t t = 0, u = 0, v = 0;
  std::uint8_t odd = 0;    ///< t+u+v odd: the ket side negates the value
  std::uint16_t upos = 0;  ///< position in the class's union pattern
};

/// A (t,u,v) coordinate of a class's union pattern.
struct HermiteCoord {
  std::uint8_t t = 0, u = 0, v = 0;
};

/// Static entry layout of the angular class (la, lb), one per class,
/// built once per process: the entries of a pair whose centres differ in
/// every coordinate and whose exponents differ, the widest pattern the
/// class has.
struct PairSkeleton {
  int lab = 0;                  ///< la + lb
  std::size_t na = 0, nb = 0;   ///< Cartesian components per shell
  /// Union of the components' (t,u,v) slots, in box-offset order
  /// (box edge lab + 1); HermiteEntry::upos indexes into it.
  std::vector<HermiteCoord> union_coords;
  /// Per-component entry lists, concatenated in box-offset order;
  /// component ia * nb + ib owns [comp_begin[c], comp_begin[c + 1]).
  std::vector<HermiteEntry> entries;
  std::vector<std::uint32_t> comp_begin;
};

/// Precomputed coefficient-weighted Hermite expansion of one contracted
/// shell pair (all primitive pairs), stored in its class skeleton's
/// layout. class_id() is what the batched kernel sorts lanes by.
class ShellPairHermite {
 public:
  ShellPairHermite(const chem::Shell& a, const chem::Shell& b);

  std::size_t num_functions_bra() const { return skel_->na; }
  std::size_t num_functions_ket() const { return skel_->nb; }
  int total_l() const { return skel_->lab; }
  /// nprim_a * nprim_b: the primitive pairs the expansion holds.
  std::size_t num_primitive_pairs() const { return prims_.size(); }
  /// Batching class: (la, lb, primitive pairs). Pairs with equal ids
  /// share a skeleton and a primitive count, so the batched kernel runs
  /// them in one batch whatever their geometry.
  std::uint32_t class_id() const { return class_id_; }

 private:
  friend class BatchedEri;

  struct Prim {
    double p = 0.0;         // exponent sum
    chem::Vec3 center{};    // Gaussian product center
    double max_abs_e = 0.0; // largest |E| — primitive-level cutoff bound
  };

  const PairSkeleton* skel_ = nullptr;
  std::uint32_t class_id_ = 0;
  std::vector<Prim> prims_;
  /// Entry values, [primitive][skeleton entry]: E with the contraction
  /// and normalization coefficients folded in; exact 0.0 in slots that
  /// parity empties for this pair's geometry.
  std::vector<double> vals_;
  /// Bit e set when some primitive's value at skeleton entry e is
  /// nonzero; the kernel skips entries no lane of a batch sets.
  std::vector<std::uint64_t> live_;
};

/// Convenience: compute one shell quartet (ab|cd) from shells — a
/// one-quartet batched stream, so a caller that sweeps many quartets
/// should expand its pairs once and stream them (eri_batch.hpp).
EriBlock eri_shell_quartet(const chem::Shell& a, const chem::Shell& b,
                           const chem::Shell& c, const chem::Shell& d);

/// Full nao^4 tensor in chemists' notation (test/small-system use only).
/// Index ((mu*n + nu)*n + lam)*n + sig. Pair expansions are built for
/// the sa >= sb triangle only and reused for both bra orders; each bra
/// runs every ket in one batched stream.
std::vector<double> eri_tensor(const chem::BasisSet& basis);

}  // namespace mthfx::ints
