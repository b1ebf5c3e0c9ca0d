#include "scf/guess.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "chem/elements.hpp"
#include "ints/one_electron.hpp"
#include "linalg/eigen.hpp"
#include "scf/scf_loop.hpp"

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

namespace {

// Hund's-rule ground-state multiplicity 2S+1 of the neutral atoms H..Ar.
constexpr std::array<int, chem::kMaxZ> kGroundMultiplicity{
    2, 1,                    // H He
    2, 1, 2, 3, 4, 3, 2, 1,  // Li Be B C N O F Ne
    2, 1, 2, 3, 4, 3, 2, 1,  // Na Mg Al Si P S Cl Ar
};

// The AO map of one signed permutation r -> (s_i r_pi(i)): component k of
// a shell goes to component `to[k]` of the same shell with sign `sign[k]`.
// Permuting the powers of a Cartesian component keeps its normalization,
// so the map is a signed permutation of the normalized AOs.
struct AoMap {
  std::vector<std::size_t> to;
  std::vector<double> sign;
};

AoMap signed_permutation(const chem::BasisSet& basis,
                         const std::array<int, 3>& perm,
                         const std::array<double, 3>& s) {
  AoMap map;
  for (std::size_t sh = 0; sh < basis.num_shells(); ++sh) {
    const auto powers = chem::cartesian_powers(basis.shell(sh).l());
    const std::size_t first = basis.first_function(sh);
    for (const chem::CartPowers& p : powers) {
      const std::array<int, 3> from{p.x, p.y, p.z};
      std::array<int, 3> to{};
      double sign = 1.0;
      for (int i = 0; i < 3; ++i) {
        to[perm[i]] = from[i];
        if (from[i] % 2 != 0) sign *= s[i];
      }
      std::size_t k = 0;
      while (powers[k].x != to[0] || powers[k].y != to[1] ||
             powers[k].z != to[2])
        ++k;
      map.to.push_back(first + k);
      map.sign.push_back(sign);
    }
  }
  return map;
}

// Average of T P T^T over the 48 signed permutations T, mirrored from the
// upper triangle so the result is exactly symmetric.
Matrix octahedral_average(const chem::BasisSet& basis, const Matrix& p) {
  const std::size_t n = p.rows();
  Matrix sum(n, n);
  std::array<int, 3> perm{0, 1, 2};
  do {
    for (int bits = 0; bits < 8; ++bits) {
      const std::array<double, 3> s{bits & 1 ? -1.0 : 1.0,
                                    bits & 2 ? -1.0 : 1.0,
                                    bits & 4 ? -1.0 : 1.0};
      const AoMap m = signed_permutation(basis, perm, s);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
          sum(m.to[i], m.to[j]) += m.sign[i] * m.sign[j] * p(i, j);
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  Matrix avg(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j)
      avg(i, j) = avg(j, i) = sum(i, j) / 48.0;
  return avg;
}

AtomicDensity solve_atom(int z, const std::vector<chem::Shell>& shells) {
  chem::BasisSet basis;
  for (const chem::Shell& sh : shells) {
    std::vector<double> coefs(sh.num_primitives());
    for (std::size_t p = 0; p < coefs.size(); ++p) coefs[p] = sh.coef(p);
    basis.add_shell(chem::Shell(sh.l(), 0, {}, sh.exponents(), coefs));
  }
  const chem::Molecule atom({chem::Atom{z, {}}});
  UhfOptions options;
  options.hfx.num_threads = 1;
  const UhfResult r = detail::uhf_from_core_guess(
      atom, basis, kGroundMultiplicity[z - 1], options);
  return {octahedral_average(basis, r.total_density()), r.iterations,
          r.converged};
}

// Z, then per shell l, primitive count, exponents and coefficients.
std::vector<double> cache_key(int z, const std::vector<chem::Shell>& shells) {
  std::vector<double> key{static_cast<double>(z)};
  for (const chem::Shell& sh : shells) {
    key.push_back(sh.l());
    key.push_back(static_cast<double>(sh.num_primitives()));
    for (std::size_t p = 0; p < sh.num_primitives(); ++p) {
      key.push_back(sh.exponents()[p]);
      key.push_back(sh.coef(p));
    }
  }
  return key;
}

}  // namespace

std::shared_ptr<const AtomicDensity> atomic_density(
    int z, const std::vector<chem::Shell>& shells) {
  if (z < 1 || z > chem::kMaxZ)
    throw std::out_of_range("atomic_density: no ground state for Z = " +
                            std::to_string(z));
  static std::mutex mutex;
  static std::map<std::vector<double>, std::shared_ptr<const AtomicDensity>>
      cache;
  std::vector<double> key = cache_key(z, shells);
  const std::lock_guard lock(mutex);
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache
             .emplace(std::move(key), std::make_shared<const AtomicDensity>(
                                          solve_atom(z, shells)))
             .first;
  return it->second;
}

Matrix sad_guess_density(const chem::BasisSet& basis,
                         const chem::Molecule& mol) {
  // Each atom's shells and their AO indices in the molecule.
  std::vector<std::vector<chem::Shell>> shells(mol.size());
  std::vector<std::vector<std::size_t>> aos(mol.size());
  for (std::size_t s = 0; s < basis.num_shells(); ++s) {
    const chem::Shell& sh = basis.shell(s);
    if (sh.atom_index() >= mol.size())
      throw std::invalid_argument(
          "sad_guess_density: shell on an atom the molecule lacks");
    shells[sh.atom_index()].push_back(sh);
    for (std::size_t k = 0; k < sh.num_functions(); ++k)
      aos[sh.atom_index()].push_back(basis.first_function(s) + k);
  }
  const std::size_t nao = basis.num_functions();
  Matrix p(nao, nao);
  for (std::size_t a = 0; a < mol.size(); ++a) {
    if (shells[a].empty()) continue;
    const auto atom = atomic_density(mol.atom(a).z, shells[a]);
    for (std::size_t i = 0; i < aos[a].size(); ++i)
      for (std::size_t j = 0; j < aos[a].size(); ++j)
        p(aos[a][i], aos[a][j]) = atom->density(i, j);
  }
  return p;
}

}  // namespace mthfx::scf
