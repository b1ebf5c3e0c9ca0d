#include "scf/guess.hpp"

#include <stdexcept>

#include "ints/one_electron.hpp"
#include "linalg/eigen.hpp"

namespace mthfx::scf {

using linalg::Matrix;

Matrix occupied_density(const Matrix& c, std::size_t nocc,
                        double occupation) {
  const std::size_t n = c.rows();
  if (nocc > c.cols())
    throw std::invalid_argument("solve_orbitals: more occupied MOs than AOs");
  Matrix p(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double v = 0.0;
      for (std::size_t o = 0; o < nocc; ++o) v += c(i, o) * c(j, o);
      p(i, j) = occupation * v;
    }
  return p;
}

OrbitalSolution solve_orbitals(const Matrix& f, const Matrix& x,
                               std::size_t nocc, double occupation) {
  // F' = X^T F X; F' C' = C' e; C = X C'.
  const Matrix fprime = linalg::matmul(linalg::matmul(linalg::transpose(x), f), x);
  const auto eig = linalg::eigh(fprime);
  Matrix c = linalg::matmul(x, eig.vectors);
  Matrix p = occupied_density(c, nocc, occupation);
  return {std::move(c), eig.values, std::move(p)};
}

Matrix core_guess_density(const chem::BasisSet& basis,
                          const chem::Molecule& mol, const Matrix& x) {
  const int nelec = mol.num_electrons();
  if (nelec % 2 != 0)
    throw std::invalid_argument(
        "core_guess_density: closed-shell SCF requires an even electron "
        "count");
  const Matrix h = ints::core_hamiltonian(basis, mol);
  return solve_orbitals(h, x, static_cast<std::size_t>(nelec / 2)).density;
}

}  // namespace mthfx::scf
