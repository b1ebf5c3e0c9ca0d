#include "scf/gradient.hpp"

#include <cmath>
#include <optional>

#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/xc_integrator.hpp"
#include "hfx/grad_contraction.hpp"
#include "ints/deriv.hpp"
#include "ints/schwarz.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::scf {

using chem::Vec3;
using linalg::Matrix;

std::vector<Vec3> nuclear_repulsion_gradient(const chem::Molecule& mol) {
  std::vector<Vec3> g(mol.size(), Vec3{0, 0, 0});
  for (std::size_t i = 0; i < mol.size(); ++i) {
    for (std::size_t j = 0; j < mol.size(); ++j) {
      if (i == j) continue;
      const Vec3 d = mol.atom(i).pos - mol.atom(j).pos;
      const double r = chem::norm(d);
      const double f = -static_cast<double>(mol.atom(i).z) *
                       static_cast<double>(mol.atom(j).z) / (r * r * r);
      g[i] = g[i] + f * d;
    }
  }
  return g;
}

namespace {

// Energy-weighted density W = 2 sum_occ eps_i c_i c_i^T.
Matrix energy_weighted_density(const ScfResult& result, std::size_t nocc) {
  const std::size_t nao = result.density.rows();
  Matrix w(nao, nao);
  for (std::size_t mu = 0; mu < nao; ++mu)
    for (std::size_t nu = 0; nu < nao; ++nu) {
      double v = 0.0;
      for (std::size_t o = 0; o < nocc; ++o)
        v += result.orbital_energies[o] * result.coefficients(mu, o) *
             result.coefficients(nu, o);
      w(mu, nu) = 2.0 * v;
    }
  return w;
}

// One-electron terms P (dT + dV) and the Pulay term -W dS, accumulated
// into grad. Shared verbatim between the RHF and RKS surfaces.
void add_one_electron_gradient(const chem::Molecule& mol,
                               const chem::BasisSet& basis, const Matrix& p,
                               const Matrix& w, std::vector<Vec3>& grad) {
  for (std::size_t sa = 0; sa < basis.num_shells(); ++sa) {
    for (std::size_t sb = 0; sb < basis.num_shells(); ++sb) {
      const auto& a = basis.shell(sa);
      const auto& b = basis.shell(sb);
      const std::size_t oa = basis.first_function(sa);
      const std::size_t ob = basis.first_function(sb);

      const auto ds = ints::overlap_gradient_block(a, b);
      const auto dt = ints::kinetic_gradient_block(a, b);
      for (std::size_t d = 0; d < 3; ++d) {
        double acc_t = 0.0, acc_s = 0.0;
        for (std::size_t i = 0; i < ds[d].rows(); ++i)
          for (std::size_t j = 0; j < ds[d].cols(); ++j) {
            acc_t += p(oa + i, ob + j) * dt[d](i, j);
            acc_s += w(oa + i, ob + j) * ds[d](i, j);
          }
        // The blocks hold only the bra-center derivative. Because T, S,
        // P and W are symmetric, the ket-derivative sum over all ordered
        // pairs equals the bra-derivative sum, hence the factor 2.
        grad[a.atom_index()][d] += 2.0 * (acc_t - acc_s);
      }

      const auto dv = ints::nuclear_gradient_blocks(a, b, mol);
      for (std::size_t atom = 0; atom < mol.size(); ++atom)
        for (std::size_t d = 0; d < 3; ++d) {
          double acc = 0.0;
          for (std::size_t i = 0; i < dv[atom][d].rows(); ++i)
            for (std::size_t j = 0; j < dv[atom][d].cols(); ++j)
              acc += p(oa + i, ob + j) * dv[atom][d](i, j);
          grad[atom][d] += acc;
        }
    }
  }
}

}  // namespace

std::vector<Vec3> rhf_gradient(const chem::Molecule& mol,
                               const chem::BasisSet& basis,
                               const ScfResult& result) {
  // RHF is the ax = 1, no-XC case; screen the derivative ERIs at the
  // contraction's own default threshold.
  KsOptions hf;
  hf.functional = "hf";
  hf.scf.hfx.eps_schwarz = hfx::GradContractionOptions{}.eps_schwarz;
  return ks_gradient(mol, basis, hf, KsResult{result});
}

std::vector<Vec3> ks_gradient(const chem::Molecule& mol,
                              const chem::BasisSet& basis,
                              const KsOptions& options,
                              const KsResult& result) {
  const dft::Functional functional = dft::make_functional(options.functional);
  const bool semilocal = options.functional != "hf";
  const auto nocc = static_cast<std::size_t>(mol.num_electrons() / 2);
  const Matrix& p = result.scf.density;
  const Matrix w = energy_weighted_density(result.scf, nocc);

  std::vector<Vec3> grad = nuclear_repulsion_gradient(mol);
  add_one_electron_gradient(mol, basis, p, w, grad);

  // Two-electron term: Coulomb derivative always, exchange derivative
  // scaled by the functional's exact-exchange fraction. Reuse the shared
  // builder's screened pair list and pool when one targets this basis
  // (the MD surface's cross-step path); otherwise build a fresh list and
  // start one pool for both threaded terms.
  hfx::GradContractionOptions gopt;
  gopt.ax = functional.exact_exchange;
  gopt.eps_schwarz = options.scf.hfx.eps_schwarz;
  gopt.num_threads = options.scf.hfx.num_threads;
  const hfx::FockBuilder* shared = options.scf.shared_builder;
  if (shared && &shared->basis() != &basis) shared = nullptr;
  std::optional<hfx::ShellPairList> own_pairs;
  const hfx::ShellPairList& pairs =
      shared ? shared->pairs()
             : own_pairs.emplace(basis, ints::schwarz_bounds(basis),
                                 gopt.eps_schwarz);
  std::optional<parallel::ThreadPool> own_pool;
  parallel::ThreadPool& pool =
      shared ? shared->pool() : own_pool.emplace(options.scf.hfx.num_threads);
  const std::vector<Vec3> g2 =
      hfx::two_electron_gradient(basis, pairs, p, gopt, pool);
  for (std::size_t a = 0; a < grad.size(); ++a) grad[a] = grad[a] + g2[a];

  if (semilocal) {
    std::optional<KsGrid> own_grid;
    const KsGrid& grid = grid_for(mol, basis, options, own_grid);
    const std::vector<Vec3> gxc =
        grid.xc().gradient(functional, p, mol, &pool);
    for (std::size_t a = 0; a < grad.size(); ++a) grad[a] = grad[a] + gxc[a];
  }
  return grad;
}

}  // namespace mthfx::scf
