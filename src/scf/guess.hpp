#pragma once

// Initial-guess machinery for the SCF drivers.

#include <cstddef>
#include <memory>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "linalg/matrix.hpp"

namespace mthfx::scf {

/// Density from occupying the lowest `nocc` orbitals of a Fock-like
/// matrix `f`: P = occupation · C_occ C_occ^T with F C = S C e solved via
/// the orthogonalizer `x` (= S^{-1/2}). Occupation 2 is closed shell,
/// 1 one spin channel.
struct OrbitalSolution {
  linalg::Matrix coefficients;     ///< C (nao x nao), columns = MOs
  linalg::Vector orbital_energies; ///< ascending
  linalg::Matrix density;          ///< P = occupation · C_occ C_occ^T
};

OrbitalSolution solve_orbitals(const linalg::Matrix& f, const linalg::Matrix& x,
                               std::size_t nocc, double occupation = 2.0);

/// occupation · C_occ C_occ^T over the first `nocc` columns of `c`.
linalg::Matrix occupied_density(const linalg::Matrix& c, std::size_t nocc,
                                double occupation);

/// Core-Hamiltonian guess density for a molecule/basis.
linalg::Matrix core_guess_density(const chem::BasisSet& basis,
                                  const chem::Molecule& mol,
                                  const linalg::Matrix& x);

/// One neutral atom's density in its own shells, placed at the origin:
/// the total (alpha + beta) density of a UHF solve at the ground-state
/// multiplicity, started from the core guess on one HFX thread, averaged
/// over the 48 signed permutations of x, y, z (the exact spherical
/// average for s and p shells). Atom-local AO order = shell order.
struct AtomicDensity {
  linalg::Matrix density;
  std::size_t iterations = 0;
  bool converged = false;
};

/// The atomic density of element z in `shells` (their centres are
/// ignored), solved on first use and cached per process under a mutex,
/// keyed on z and the shells' l, exponents and coefficients. The solve
/// uses no caller setting, so the result depends only on its key.
std::shared_ptr<const AtomicDensity> atomic_density(
    int z, const std::vector<chem::Shell>& shells);

/// Superposition of atomic densities (SAD; Van Lenthe et al., J. Comput.
/// Chem. 27, 926 (2006)): each atom's cached atomic_density placed
/// block-diagonally in the molecule's AO order, inter-atom blocks zero.
/// It describes the neutral atoms, so tr(P S) = Σ Z whatever the charge;
/// the first diagonalization fixes the electron count. The cold guess of
/// every SCF driver.
linalg::Matrix sad_guess_density(const chem::BasisSet& basis,
                                 const chem::Molecule& mol);

}  // namespace mthfx::scf
