#pragma once

// Initial-guess machinery for the SCF drivers.

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

}  // namespace mthfx::scf
