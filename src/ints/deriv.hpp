#pragma once

// Derivative integrals for analytic nuclear gradients.
//
// Everything follows from the function-level shift relation for a
// primitive Cartesian Gaussian centered at A:
//     d/dA_x [x_A^i e^{-a r_A^2}] = 2a (i+1 term) - i (i-1 term),
// so every integral derivative is a combination of the same integral
// with one Cartesian power raised and lowered. Operator-center
// derivatives (nuclear attraction) come from the Hermite-Coulomb ladder
// d/dC_x R(t,u,v) = -R(t+1,u,v). The fourth ERI center is eliminated by
// translational invariance.
//
// The one-electron blocks are built shell pair by shell pair from
// ints::HermiteE / HermiteR. The ERI derivatives, the gradient's hot
// path, run on per-pair expansions (ShellPairDeriv) through the
// allocation-free quartet kernel eri_gradient_quartet, which tests check
// against the per-primitive oracle testing::reference_eri_gradient_blocks.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "ints/eri.hpp"
#include "linalg/matrix.hpp"

namespace mthfx::ints {

/// d/d{Ax,Ay,Az} of the overlap block <a|b> (derivative with respect to
/// shell a's center; d/dB = -d/dA).
std::array<linalg::Matrix, 3> overlap_gradient_block(const chem::Shell& a,
                                                     const chem::Shell& b);

/// d/d{Ax,Ay,Az} of the kinetic block.
std::array<linalg::Matrix, 3> kinetic_gradient_block(const chem::Shell& a,
                                                     const chem::Shell& b);

/// Nuclear-attraction derivatives of the block <a| sum_C -Z_C/r_C |b>:
/// returns, for every atom g of the molecule, d(block)/d{X_g,Y_g,Z_g}.
/// Includes both basis-center terms (for atoms carrying a or b) and
/// operator-center terms.
std::vector<std::array<linalg::Matrix, 3>> nuclear_gradient_blocks(
    const chem::Shell& a, const chem::Shell& b, const chem::Molecule& mol);

/// All ERI derivative blocks of one shell quartet: g[center][dir] is the
/// flattened (na*nb*nc*nd) block of d(ab|cd)/d{center,dir} for center in
/// {A, B, C} and dir in {x, y, z}, index ((i*nb + j)*nc + k)*nd + l as in
/// ints::EriBlock. The D derivative follows from translational
/// invariance: dD = -(dA + dB + dC). eri_gradient_quartet fills it; the
/// vectors keep their capacity across calls, so a caller that reuses one
/// EriGradBlocks per thread never allocates in the quartet loop.
struct EriGradBlocks {
  std::array<std::array<std::vector<double>, 3>, 3> g;
};

/// Derivative Hermite expansion of one contracted shell pair (a b), built
/// once per pair and read by every quartet the pair takes part in. Per
/// primitive pair it holds the exponent sum p, the product center P and,
/// with the contraction coefficients folded in, three kinds of entry
/// lists per Cartesian component:
///   - the plain expansion E(t,u,v) (order <= la+lb);
///   - the center-A derivative in x, y, z: the shift relation
///     2a E(i+1) - i E(i-1) formed in the differentiated direction, one
///     Hermite order higher (order <= la+lb+1);
///   - the center-B derivative, 2b E(j+1) - j E(j-1), likewise.
/// Entries are compacted to the nonzero ones (the same-center parity
/// zeros drop out) and index two compact point lists: the (t,u,v) the
/// plain lists touch and the (t,u,v) the derivative lists touch.
class ShellPairDeriv {
 public:
  ShellPairDeriv(const chem::Shell& a, const chem::Shell& b);

 private:
  friend void eri_gradient_quartet(const ShellPairDeriv& bra,
                                   const ShellPairDeriv& ket,
                                   EriGradBlocks& out);

  /// Entry-list segments of a component: plain, A in x/y/z, B in x/y/z.
  static constexpr std::size_t kSegments = 7;

  /// One nonzero entry: the value, the value times (-1)^(t+u+v) (ket
  /// side), the Hermite orders and the entry's point index.
  struct Entry {
    double val = 0.0, sval = 0.0;
    std::uint8_t t = 0, u = 0, v = 0;
    std::uint16_t upos = 0;
  };

  struct Prim {
    double p = 0.0;          // exponent sum
    chem::Vec3 center{};     // Gaussian product center
    double max_abs = 0.0;    // largest |entry| of any list
    /// List (segment s, component c) owns entries
    /// [begin[s*ncomp + c], begin[s*ncomp + c + 1]).
    std::vector<Entry> entries;
    std::vector<std::uint32_t> begin;
  };

  int lab_ = 0;
  std::size_t ncomp_ = 0;
  std::vector<HermiteCoord> points_;   // points of the plain lists
  std::vector<HermiteCoord> dpoints_;  // points of the derivative lists
  std::vector<Prim> prims_;
};

/// Derivative ERIs of one shell quartet from precomputed pair expansions.
/// Per primitive quartet it builds one order-(L+1) Hermite Coulomb tensor
/// (L = la+lb+lc+ld) in per-thread fixed storage and contracts it once
/// with the ket's plain lists over the bra's derivative points (the
/// panel read by every bra A and B derivative) and with the ket's
/// center-C derivative lists over the bra's plain points (read by the
/// bra's plain lists). Primitive quartets whose bound falls below
/// kEriPrimitiveCutoff are skipped, as in the value kernel. Allocation-
/// free once `out` and the thread's scratch are warm.
void eri_gradient_quartet(const ShellPairDeriv& bra, const ShellPairDeriv& ket,
                          EriGradBlocks& out);

/// Convenience: the derivative blocks of (ab|cd) from shells.
EriGradBlocks eri_gradient_quartet(const chem::Shell& a, const chem::Shell& b,
                                   const chem::Shell& c, const chem::Shell& d);

}  // namespace mthfx::ints
