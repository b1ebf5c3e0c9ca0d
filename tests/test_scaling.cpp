// Sparsity-aware near-linear SCF pipeline: distance-culled pair lists
// vs the dense sweep, blocked J/K vs the dense builder, the
// purification-based sparse_rhf vs the eigensolver path, and the
// screened XC basis cache. Registered under the compound
// "tier1-scaling" label (see tests/CMakeLists.txt for the regex-label
// convention): part of the PR gate and of `ctest -L scaling`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "chem/basis.hpp"
#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/xc_integrator.hpp"
#include "hfx/cell_list.hpp"
#include "hfx/fock_builder.hpp"
#include "hfx/shell_pairs.hpp"
#include "linalg/matrix.hpp"
#include "obs/json.hpp"
#include "scf/rhf.hpp"
#include "scf/sparse_scf.hpp"
#include "support/pair_sweep.hpp"
#include "testing/oracles.hpp"
#include "workload/geometries.hpp"
#include "workload/replicate.hpp"

namespace chem = mthfx::chem;
namespace dft = mthfx::dft;
namespace hfx = mthfx::hfx;
namespace ints = mthfx::ints;
namespace la = mthfx::linalg;
namespace obs = mthfx::obs;
namespace scf = mthfx::scf;
namespace ts = mthfx::testsupport;
namespace wl = mthfx::workload;

namespace {

std::vector<double> bits(const la::Matrix& m) {
  return {m.flat().begin(), m.flat().end()};
}

la::Matrix random_density_like(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-0.3, 0.3);
  la::Matrix p(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    p(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = dist(rng);
      p(i, j) = v;
      p(j, i) = v;
    }
  }
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pair formation: the culled cell-list build against a brute-force sweep
// over every shell pair (bound, extent rule, eps rule; see
// tests/support/pair_sweep.hpp).

TEST(PairCulling, CulledListMatchesDenseOnSpreadBox) {
  const auto box = wl::box_of(wl::propylene_carbonate(), 4, 1.205, 3);
  const auto basis = chem::BasisSet::build(box, "sto-3g");
  const double eps = 1e-10;

  const ts::PairSweep dense = ts::brute_force_pairs(basis, eps);
  hfx::PairCullStats st;
  const hfx::ShellPairList culled = hfx::ShellPairList::culled(basis, eps, &st);

  ASSERT_EQ(culled.size(), dense.pairs.size());
  EXPECT_EQ(culled.max_q(), dense.max_q);
  const auto b = ts::by_index(culled.pairs());
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(dense.pairs[i].sa, b[i].sa);
    EXPECT_EQ(dense.pairs[i].sb, b[i].sb);
    EXPECT_EQ(dense.pairs[i].q, b[i].q);  // same kernel, same operand order
  }
  // The cell list must have proposed strictly fewer candidates than the
  // brute-force sweep touches on a spread box.
  EXPECT_LT(st.candidates, basis.num_shells() * (basis.num_shells() + 1) / 2);
  EXPECT_EQ(culled.unscreened_count(),
            basis.num_shells() * (basis.num_shells() + 1) / 2);
}

TEST(PairCulling, FlooredPairsAreDroppedByBothBuilds) {
  // Two PC molecules ~60 bohr apart: every cross pair underflows.
  auto far = wl::propylene_carbonate();
  auto other = wl::propylene_carbonate();
  other.translate({60.0, 0.0, 0.0});
  far.append(other);
  const auto basis = chem::BasisSet::build(far, "sto-3g");

  const ts::PairSweep dense = ts::brute_force_pairs(basis, 1e-10);
  const hfx::ShellPairList culled = hfx::ShellPairList::culled(basis, 1e-10);
  ASSERT_EQ(dense.pairs.size(), culled.size());
  // No surviving pair may straddle the two far-apart copies.
  const std::size_t ns_half = basis.num_shells() / 2;
  for (const auto& p : culled.pairs())
    EXPECT_EQ(p.sa < ns_half, p.sb < ns_half)
        << "cross pair survived: " << p.sa << "," << p.sb << " q=" << p.q;
}

// ---------------------------------------------------------------------------
// Blocked J/K against the dense builder on the same pair list.

TEST(BlockedBuild, JkMatchesDenseBuilder) {
  const auto box = wl::box_of(wl::propylene_carbonate(), 2, 1.205, 1);
  const auto basis = chem::BasisSet::build(box, "sto-3g");

  hfx::HfxOptions dense_opts;
  dense_opts.num_threads = 1;
  const hfx::FockBuilder dense(basis, dense_opts);

  const auto part = scf::shell_aligned_partition(basis, 48);
  const auto p_blk = la::BlockSparseMatrix::from_dense(
      random_density_like(basis.num_functions(), 7), part, 1e-12);
  const auto ref = dense.coulomb_exchange(p_blk.to_dense());
  const auto metric_names = [](const obs::Json& metrics) {
    std::vector<std::string> names;
    for (const char* kind : {"counters", "timers"})
      for (const auto& member : metrics.find(kind)->members())
        names.push_back(member.first);
    return names;
  };

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("num_threads " + std::to_string(threads));
    hfx::HfxOptions blocked_opts;
    blocked_opts.num_threads = threads;
    blocked_opts.sparsity.mode = hfx::SparsityMode::kBlocked;
    const hfx::FockBuilder blocked(basis, blocked_opts);
    EXPECT_TRUE(blocked.blocked());
    const auto got = blocked.coulomb_exchange_blocked(p_blk);
    EXPECT_EQ(got.stats.thread_busy_seconds.size(), threads);
    EXPECT_EQ(ref.stats.screening.quartets_computed,
              got.stats.screening.quartets_computed);
    // One build behind both ket sources: the same registry names.
    EXPECT_EQ(metric_names(ref.stats.metrics),
              metric_names(got.stats.metrics));

    // One pair list in one order, one chunk cut and one digest order:
    // the ket source changes which kets are visited, never the result.
    EXPECT_EQ(bits(ref.j), bits(got.j));
    EXPECT_EQ(bits(ref.k), bits(got.k));
  }
}

// Both ket sources run on the one pair list: same pairs in the same
// order, and bit-identical J and K, before and after a rebind.
TEST(BlockedBuild, DenseAndBlockedBuildersShareOnePairList) {
  auto mol = wl::box_of(wl::water(), 3, 1.0, 5);
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  mol.set_position(0, mol.atom(0).pos + chem::Vec3{0.05, -0.03, 0.02});
  const auto moved = chem::BasisSet::build(mol, "sto-3g");

  hfx::HfxOptions dense_opts;
  dense_opts.num_threads = 2;
  dense_opts.sparsity.mode = hfx::SparsityMode::kDense;
  hfx::HfxOptions blocked_opts = dense_opts;
  blocked_opts.sparsity.mode = hfx::SparsityMode::kBlocked;
  hfx::FockBuilder dense(basis, dense_opts);
  hfx::FockBuilder blocked(basis, blocked_opts);
  ASSERT_FALSE(dense.blocked());
  ASSERT_TRUE(blocked.blocked());

  const la::Matrix p = random_density_like(basis.num_functions(), 11);
  const auto same = [&](const char* where) {
    SCOPED_TRACE(where);
    const auto& a = dense.pairs();
    const auto& b = blocked.pairs();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.max_q(), b.max_q());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].sa, b[i].sa) << "position " << i;
      EXPECT_EQ(a[i].sb, b[i].sb) << "position " << i;
      EXPECT_EQ(a[i].q, b[i].q) << "position " << i;
    }
    const auto jk_d = dense.coulomb_exchange(p);
    const auto jk_b = blocked.coulomb_exchange(p);
    EXPECT_EQ(bits(jk_d.j), bits(jk_b.j));
    EXPECT_EQ(bits(jk_d.k), bits(jk_b.k));
    EXPECT_EQ(bits(dense.exchange(p).k), bits(blocked.exchange(p).k));
  };
  same("constructed");
  dense.rebind(moved);
  blocked.rebind(moved);
  EXPECT_GT(dense.last_rebind_reused_pairs(), 0u);
  EXPECT_EQ(dense.last_rebind_reused_pairs(),
            blocked.last_rebind_reused_pairs());
  same("rebound");
}

// ---------------------------------------------------------------------------
// Full sparse SCF against the dense eigensolver path.

TEST(SparseScf, MatchesDenseEnergyOnWaterBox) {
  const auto box = wl::box_of(wl::water(), 4, 1.0, 2);
  const auto basis = chem::BasisSet::build(box, "sto-3g");

  scf::ScfOptions dense_opts;
  dense_opts.hfx.num_threads = 1;
  dense_opts.hfx.sparsity.mode = hfx::SparsityMode::kDense;
  const auto ref = scf::rhf(box, basis, dense_opts);
  ASSERT_TRUE(ref.converged);

  scf::ScfOptions blocked_opts;
  blocked_opts.hfx.num_threads = 1;
  blocked_opts.hfx.sparsity.mode = hfx::SparsityMode::kBlocked;
  scf::SparseScfInfo info;
  const auto got = scf::sparse_rhf(box, basis, blocked_opts, &info);
  ASSERT_TRUE(got.converged);

  EXPECT_NEAR(got.energy, ref.energy, 1e-8);
  EXPECT_EQ(info.nbf, basis.num_functions());
  EXPECT_GT(info.num_pairs, 0u);
  EXPECT_GT(info.ns_iterations, 0);
  EXPECT_GT(info.last_tc2_iterations, 0);
  EXPECT_GT(info.density_nnz, 0.0);
  EXPECT_LE(info.density_nnz, 1.0);
}

TEST(SparseScf, MatchesDenseEnergyOnCompactMolecule) {
  // Compact system: no floored pairs, both paths see identical quartets.
  const auto pc = wl::propylene_carbonate();
  const auto basis = chem::BasisSet::build(pc, "sto-3g");

  scf::ScfOptions dense_opts;
  dense_opts.hfx.num_threads = 1;
  const auto ref = scf::rhf(pc, basis, dense_opts);
  ASSERT_TRUE(ref.converged);

  scf::ScfOptions blocked_opts;
  blocked_opts.hfx.num_threads = 1;
  blocked_opts.hfx.sparsity.mode = hfx::SparsityMode::kBlocked;
  const auto got = scf::sparse_rhf(pc, basis, blocked_opts);
  ASSERT_TRUE(got.converged);
  EXPECT_NEAR(got.energy, ref.energy, 1e-8);
}

TEST(SparseScf, RhfRoutesThroughSparsityMode) {
  // scf::rhf itself must dispatch to the sparse path when the options
  // say blocked — same energy, no orbital data on the sparse result.
  const auto box = wl::box_of(wl::water(), 2, 1.0, 4);
  const auto basis = chem::BasisSet::build(box, "sto-3g");
  scf::ScfOptions opts;
  opts.hfx.num_threads = 1;
  opts.hfx.sparsity.mode = hfx::SparsityMode::kBlocked;
  const auto routed = scf::rhf(box, basis, opts);
  opts.hfx.sparsity.mode = hfx::SparsityMode::kDense;
  const auto dense = scf::rhf(box, basis, opts);
  ASSERT_TRUE(routed.converged);
  ASSERT_TRUE(dense.converged);
  EXPECT_NEAR(routed.energy, dense.energy, 1e-8);
  EXPECT_TRUE(routed.coefficients.empty());
}

TEST(SparsityOptions, AutoThresholdRouting) {
  hfx::SparsityOptions s;
  EXPECT_FALSE(s.blocked(s.auto_nbf_threshold));
  EXPECT_TRUE(s.blocked(s.auto_nbf_threshold + 1));
  s.mode = hfx::SparsityMode::kDense;
  EXPECT_FALSE(s.blocked(1u << 20));
  s.mode = hfx::SparsityMode::kBlocked;
  EXPECT_TRUE(s.blocked(1));
}

// ---------------------------------------------------------------------------
// Screened XC basis evaluation.

TEST(XcScreening, ScreenedIntegratorMatchesDense) {
  const auto box = wl::box_of(wl::water(), 2, 1.0, 9);
  const auto basis = chem::BasisSet::build(box, "sto-3g");
  dft::GridOptions gopts;
  gopts.radial_points = 20;
  gopts.angular_points = 26;
  const dft::MolecularGrid grid(box, gopts);

  const dft::XcIntegrator screened(basis, grid);
  EXPECT_GT(screened.cached_fraction(), 0.0);
  EXPECT_LT(screened.cached_fraction(), 1.0);

  const la::Matrix p = random_density_like(basis.num_functions(), 13);
  const auto functional = dft::make_functional("pbe");
  const auto a = mthfx::testing::dense_xc_reference(basis, grid, functional, p);
  const auto b = screened.integrate(functional, p);
  EXPECT_NEAR(a.energy, b.energy, 1e-10);
  EXPECT_NEAR(a.integrated_density, b.integrated_density, 1e-10);
  double vdiff = 0.0;
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (std::size_t j = 0; j < p.cols(); ++j)
      vdiff = std::max(vdiff, std::abs(a.v(i, j) - b.v(i, j)));
  EXPECT_LT(vdiff, 1e-10);
}
