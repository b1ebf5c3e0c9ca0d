#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "chem/basis.hpp"
#include "hfx/fock_builder.hpp"
#include "hfx/grad_contraction.hpp"
#include "ints/deriv.hpp"
#include "ints/eri.hpp"
#include "ints/one_electron.hpp"
#include "ints/schwarz.hpp"
#include "parallel/thread_pool.hpp"
#include "scf/gradient.hpp"
#include "scf/rhf.hpp"
#include "workload/geometries.hpp"

namespace chem = mthfx::chem;
namespace hfx = mthfx::hfx;
namespace ints = mthfx::ints;
namespace la = mthfx::linalg;
namespace scf = mthfx::scf;
namespace wl = mthfx::workload;

namespace {

constexpr double kFdStep = 1e-5;

chem::Molecule lih(double r = 3.0) {
  chem::Molecule m;
  m.add_atom(3, {0, 0, 0});
  m.add_atom(1, {0.2, -0.1, r});  // slightly off-axis: all directions live
  return m;
}

// Finite-difference derivative of a matrix-valued basis functional with
// respect to coordinate d of atom `atom`.
template <typename F>
la::Matrix fd_matrix(const chem::Molecule& mol, std::size_t atom,
                     std::size_t d, F&& eval) {
  chem::Molecule mp = mol, mm = mol;
  chem::Vec3 p = mol.atom(atom).pos;
  p[d] += kFdStep;
  mp.set_position(atom, p);
  p[d] -= 2 * kFdStep;
  mm.set_position(atom, p);
  la::Matrix plus = eval(mp);
  la::Matrix minus = eval(mm);
  plus -= minus;
  plus *= 1.0 / (2 * kFdStep);
  return plus;
}

}  // namespace

TEST(DerivInts, OverlapGradientMatchesFd) {
  const auto mol = lih();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  // d/d(atom 0) of the (shell 0 = Li 1s, shell 3 = H 1s) block... take the
  // full overlap matrix derivative instead and compare shell blocks.
  for (std::size_t d = 0; d < 3; ++d) {
    const la::Matrix ref = fd_matrix(mol, 0, d, [](const chem::Molecule& m) {
      return ints::overlap(chem::BasisSet::build(m, "sto-3g"));
    });
    // Assemble analytic dS/d(atom0)_d.
    la::Matrix ana(basis.num_functions(), basis.num_functions());
    for (std::size_t sa = 0; sa < basis.num_shells(); ++sa)
      for (std::size_t sb = 0; sb < basis.num_shells(); ++sb) {
        const auto& a = basis.shell(sa);
        const auto& b = basis.shell(sb);
        if (a.atom_index() != 0 && b.atom_index() != 0) continue;
        const auto g = ints::overlap_gradient_block(a, b);
        const auto gt = ints::overlap_gradient_block(b, a);
        const std::size_t oa = basis.first_function(sa);
        const std::size_t ob = basis.first_function(sb);
        for (std::size_t i = 0; i < g[d].rows(); ++i)
          for (std::size_t j = 0; j < g[d].cols(); ++j) {
            if (a.atom_index() == 0) ana(oa + i, ob + j) += g[d](i, j);
            // Ket derivative = bra derivative of the transposed block.
            if (b.atom_index() == 0) ana(oa + i, ob + j) += gt[d](j, i);
          }
      }
    EXPECT_LT(la::max_abs(ana - ref), 1e-8) << "dir " << d;
  }
}

TEST(DerivInts, KineticGradientMatchesFd) {
  const auto mol = lih();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  for (std::size_t d = 0; d < 3; ++d) {
    const la::Matrix ref = fd_matrix(mol, 1, d, [](const chem::Molecule& m) {
      return ints::kinetic(chem::BasisSet::build(m, "sto-3g"));
    });
    la::Matrix ana(basis.num_functions(), basis.num_functions());
    for (std::size_t sa = 0; sa < basis.num_shells(); ++sa)
      for (std::size_t sb = 0; sb < basis.num_shells(); ++sb) {
        const auto& a = basis.shell(sa);
        const auto& b = basis.shell(sb);
        const auto g = ints::kinetic_gradient_block(a, b);
        const std::size_t oa = basis.first_function(sa);
        const std::size_t ob = basis.first_function(sb);
        for (std::size_t i = 0; i < g[d].rows(); ++i)
          for (std::size_t j = 0; j < g[d].cols(); ++j) {
            if (a.atom_index() == 1) ana(oa + i, ob + j) += g[d](i, j);
            if (b.atom_index() == 1 && a.atom_index() != b.atom_index())
              ana(oa + i, ob + j) -= g[d](i, j);
          }
      }
    EXPECT_LT(la::max_abs(ana - ref), 1e-7) << "dir " << d;
  }
}

TEST(DerivInts, NuclearGradientMatchesFd) {
  const auto mol = lih();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  for (std::size_t atom = 0; atom < 2; ++atom) {
    for (std::size_t d = 0; d < 3; ++d) {
      const la::Matrix ref =
          fd_matrix(mol, atom, d, [](const chem::Molecule& m) {
            return ints::nuclear_attraction(chem::BasisSet::build(m, "sto-3g"),
                                            m);
          });
      la::Matrix ana(basis.num_functions(), basis.num_functions());
      for (std::size_t sa = 0; sa < basis.num_shells(); ++sa)
        for (std::size_t sb = 0; sb < basis.num_shells(); ++sb) {
          const auto& a = basis.shell(sa);
          const auto& b = basis.shell(sb);
          const auto g = ints::nuclear_gradient_blocks(a, b, mol);
          const std::size_t oa = basis.first_function(sa);
          const std::size_t ob = basis.first_function(sb);
          for (std::size_t i = 0; i < g[atom][d].rows(); ++i)
            for (std::size_t j = 0; j < g[atom][d].cols(); ++j)
              ana(oa + i, ob + j) += g[atom][d](i, j);
        }
      EXPECT_LT(la::max_abs(ana - ref), 1e-7) << "atom " << atom << " dir "
                                              << d;
    }
  }
}

TEST(DerivInts, NuclearBlocksObeyTranslationalInvariance) {
  const auto mol = lih();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  const auto& a = basis.shell(0);
  const auto& b = basis.shell(3);
  const auto g = ints::nuclear_gradient_blocks(a, b, mol);
  for (std::size_t d = 0; d < 3; ++d) {
    la::Matrix sum(g[0][d].rows(), g[0][d].cols());
    for (std::size_t atom = 0; atom < mol.size(); ++atom) sum += g[atom][d];
    EXPECT_LT(la::max_abs(sum), 1e-10) << d;
  }
}

TEST(DerivInts, EriGradientMatchesFd) {
  const auto mol = lih();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  // Pick a quartet spanning both atoms: (Li 2p, H 1s | Li 1s, H 1s).
  const auto& a = basis.shell(2);  // Li 2p
  const auto& b = basis.shell(3);  // H 1s
  const auto& c = basis.shell(0);  // Li 1s
  const auto& d4 = basis.shell(3);

  // FD reference via rebuilt molecules: displace atom 0 (carries a, c).
  for (std::size_t d = 0; d < 3; ++d) {
    chem::Molecule mp = mol, mm = mol;
    chem::Vec3 pos = mol.atom(0).pos;
    pos[d] += kFdStep;
    mp.set_position(0, pos);
    pos[d] -= 2 * kFdStep;
    mm.set_position(0, pos);
    const auto bp = chem::BasisSet::build(mp, "sto-3g");
    const auto bm = chem::BasisSet::build(mm, "sto-3g");
    const auto blkp = ints::eri_shell_quartet(bp.shell(2), bp.shell(3),
                                              bp.shell(0), bp.shell(3));
    const auto blkm = ints::eri_shell_quartet(bm.shell(2), bm.shell(3),
                                              bm.shell(0), bm.shell(3));

    const ints::EriGradBlocks g = ints::eri_gradient_quartet(a, b, c, d4);
    for (std::size_t idx = 0; idx < blkp.values.size(); ++idx) {
      const double fd =
          (blkp.values[idx] - blkm.values[idx]) / (2 * kFdStep);
      EXPECT_NEAR(g.g[0][d][idx] + g.g[2][d][idx], fd, 1e-7)
          << idx << " dir " << d;
    }
  }
}

// Row chunks are cut from the pair list and their partials merge along a
// fixed tree, so the two-electron gradient must not depend on how many
// threads ran them.
TEST(Gradient, TwoElectronGradientBitIdenticalAcrossThreadCounts) {
  const auto mol = wl::lithium_peroxide();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  const auto r = scf::rhf(mol, basis);
  ASSERT_TRUE(r.converged);
  const la::Matrix& p = r.density;
  hfx::GradContractionOptions opts;
  opts.ax = 0.25;
  opts.num_threads = 1;
  const std::vector<chem::Vec3> ref =
      hfx::two_electron_gradient(basis, p, opts);
  const hfx::ShellPairList pairs(basis, ints::schwarz_bounds(basis),
                                 opts.eps_schwarz);
  for (const std::size_t threads : {1, 2, 4, 8}) {
    opts.num_threads = threads;
    // The per-call pool, and a caller's pool (what ks_gradient passes).
    mthfx::parallel::ThreadPool pool(threads);
    for (const std::vector<chem::Vec3>& g :
         {hfx::two_electron_gradient(basis, p, opts),
          hfx::two_electron_gradient(basis, pairs, p, opts, pool)}) {
      ASSERT_EQ(g.size(), ref.size());
      for (std::size_t atom = 0; atom < g.size(); ++atom)
        for (std::size_t d = 0; d < 3; ++d)
          EXPECT_EQ(g[atom][d], ref[atom][d])
              << threads << " threads, atom " << atom << " dir " << d;
    }
  }
}

// The MD surface's path: a PBE0 solve and its gradient on one bound
// builder, whose pool also runs the XC term of both. Energy and every
// gradient term are fixed by the chunk cuts, so the forces are the same
// bits at any thread count.
TEST(Gradient, SharedBuilderKsGradientBitIdenticalAcrossThreadCounts) {
  const auto mol = chem::Molecule::from_xyz(
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.1 -0.7572 "
      "-0.4692\n");
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  const auto forces = [&](std::size_t threads) {
    scf::KsOptions opts;
    opts.functional = "pbe0";
    opts.grid.radial_points = 25;
    opts.grid.angular_points = 26;
    opts.scf.hfx.num_threads = threads;
    hfx::FockBuilder builder(basis, opts.scf.hfx);
    opts.scf.shared_builder = &builder;
    const scf::KsResult r = scf::rks(mol, basis, opts);
    EXPECT_TRUE(r.scf.converged) << threads;
    return std::pair{r.scf.energy, scf::ks_gradient(mol, basis, opts, r)};
  };
  const auto [e_ref, g_ref] = forces(1);
  for (const std::size_t threads : {2, 4, 8}) {
    const auto [e, g] = forces(threads);
    EXPECT_EQ(e, e_ref) << threads << " threads";
    ASSERT_EQ(g.size(), g_ref.size());
    for (std::size_t atom = 0; atom < g.size(); ++atom)
      for (std::size_t d = 0; d < 3; ++d)
        EXPECT_EQ(g[atom][d], g_ref[atom][d])
            << threads << " threads, atom " << atom << " dir " << d;
  }
}

TEST(Gradient, NuclearRepulsionMatchesFd) {
  const auto mol = lih();
  const auto g = scf::nuclear_repulsion_gradient(mol);
  for (std::size_t atom = 0; atom < mol.size(); ++atom)
    for (std::size_t d = 0; d < 3; ++d) {
      chem::Molecule mp = mol, mm = mol;
      chem::Vec3 p = mol.atom(atom).pos;
      p[d] += kFdStep;
      mp.set_position(atom, p);
      p[d] -= 2 * kFdStep;
      mm.set_position(atom, p);
      const double fd =
          (mp.nuclear_repulsion() - mm.nuclear_repulsion()) / (2 * kFdStep);
      EXPECT_NEAR(g[atom][d], fd, 1e-8);
    }
}

TEST(Gradient, RhfGradientMatchesFdEnergyH2) {
  chem::Molecule mol;
  mol.add_atom(1, {0, 0, 0});
  mol.add_atom(1, {0.3, 0.2, 1.3});
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  scf::ScfOptions opts;
  opts.energy_tolerance = 1e-11;
  opts.diis_tolerance = 1e-9;
  const auto r = scf::rhf(mol, basis, opts);
  ASSERT_TRUE(r.converged);
  const auto g = scf::rhf_gradient(mol, basis, r);

  auto energy_at = [&](const chem::Molecule& m) {
    const auto b = chem::BasisSet::build(m, "sto-3g");
    scf::ScfOptions o;
    o.energy_tolerance = 1e-11;
    o.diis_tolerance = 1e-9;
    return scf::rhf(m, b, o).energy;
  };

  for (std::size_t atom = 0; atom < 2; ++atom)
    for (std::size_t d = 0; d < 3; ++d) {
      chem::Molecule mp = mol, mm = mol;
      chem::Vec3 p = mol.atom(atom).pos;
      p[d] += kFdStep;
      mp.set_position(atom, p);
      p[d] -= 2 * kFdStep;
      mm.set_position(atom, p);
      const double fd = (energy_at(mp) - energy_at(mm)) / (2 * kFdStep);
      EXPECT_NEAR(g[atom][d], fd, 1e-6) << "atom " << atom << " dir " << d;
    }
}

TEST(Gradient, RhfGradientMatchesFdEnergyLiH) {
  const auto mol = lih();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  scf::ScfOptions opts;
  opts.energy_tolerance = 1e-11;
  opts.diis_tolerance = 1e-9;
  const auto r = scf::rhf(mol, basis, opts);
  ASSERT_TRUE(r.converged);
  const auto g = scf::rhf_gradient(mol, basis, r);

  auto energy_at = [&](const chem::Molecule& m) {
    const auto b = chem::BasisSet::build(m, "sto-3g");
    scf::ScfOptions o;
    o.energy_tolerance = 1e-11;
    o.diis_tolerance = 1e-9;
    return scf::rhf(m, b, o).energy;
  };

  for (std::size_t atom = 0; atom < 2; ++atom)
    for (std::size_t d = 0; d < 3; ++d) {
      chem::Molecule mp = mol, mm = mol;
      chem::Vec3 p = mol.atom(atom).pos;
      p[d] += kFdStep;
      mp.set_position(atom, p);
      p[d] -= 2 * kFdStep;
      mm.set_position(atom, p);
      const double fd = (energy_at(mp) - energy_at(mm)) / (2 * kFdStep);
      EXPECT_NEAR(g[atom][d], fd, 5e-6) << "atom " << atom << " dir " << d;
    }
}

TEST(Gradient, TotalForceVanishes) {
  // Translational invariance of the total gradient.
  const auto mol = wl::water();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  const auto r = scf::rhf(mol, basis);
  ASSERT_TRUE(r.converged);
  const auto g = scf::rhf_gradient(mol, basis, r);
  for (std::size_t d = 0; d < 3; ++d) {
    double total = 0.0;
    for (const auto& gi : g) total += gi[d];
    EXPECT_NEAR(total, 0.0, 1e-9) << d;
  }
}
