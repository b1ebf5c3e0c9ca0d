// Property tests for the sparsity pipeline: on seeded random geometries
// and bases, the distance-culled cell-list pair formation must
// reproduce the dense O(ns²) Schwarz sweep exactly (both drop exactly
// the beyond-extent-range pairs; in-range pairs, Schwarz-floored or
// not, pass the same eps rule), and the blocked J/K build, at a drawn
// thread count, must replay the single-threaded dense builder to within
// summation-order noise on the shared pair list. Iteration count comes
// from MTHFX_PROPERTY_ITERS (default 50). Registered under the compound
// "property-scaling" label plus a nightly high-iteration run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "chem/basis.hpp"
#include "hfx/cell_list.hpp"
#include "hfx/fock_builder.hpp"
#include "hfx/shell_pairs.hpp"
#include "ints/schwarz.hpp"
#include "linalg/block_sparse.hpp"
#include "scf/sparse_scf.hpp"
#include "support/property_gtest.hpp"
#include "testing/generators.hpp"
#include "testing/property.hpp"
#include "testing/rng.hpp"

namespace chem = mthfx::chem;
namespace hfx = mthfx::hfx;
namespace ints = mthfx::ints;
namespace la = mthfx::linalg;
namespace mt = mthfx::testing;
namespace scf = mthfx::scf;

namespace {

// Spread-out geometries: wide placement cube so a good fraction of
// draws contain pairs beyond the shell extent radii (the regime the
// cell list exists for), while small atom counts keep the dense oracle
// cheap.
mt::MoleculeSpec spread_spec() {
  mt::MoleculeSpec spec;
  spec.min_atoms = 2;
  spec.max_atoms = 6;
  spec.box = 34.0;
  spec.min_separation = 2.0;
  return spec;
}

std::vector<hfx::ShellPair> by_index(std::vector<hfx::ShellPair> v) {
  std::sort(v.begin(), v.end(),
            [](const hfx::ShellPair& a, const hfx::ShellPair& b) {
              return std::tuple(a.sa, a.sb) < std::tuple(b.sa, b.sb);
            });
  return v;
}

}  // namespace

TEST(PropertyScaling, CulledPairListMatchesDenseSweep) {
  MTHFX_PROPERTY(
      "PropertyScaling.CulledPairListMatchesDenseSweep",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const chem::Molecule mol = mt::random_molecule(rng, spread_spec());
        const std::string bname = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, bname);
        // eps log-uniform over the useful screening range.
        const double eps = std::pow(10.0, -6.0 - 6.0 * rng.uniform());

        const hfx::ShellPairList dense(basis, ints::schwarz_bounds(basis),
                                       eps);
        hfx::PairCullStats st;
        const hfx::ShellPairList culled =
            hfx::ShellPairList::culled(basis, eps, &st);

        if (dense.size() != culled.size()) {
          std::ostringstream os;
          os << "pair count mismatch: dense " << dense.size() << " culled "
             << culled.size() << " (" << bname << ", eps " << eps
             << ", candidates " << st.candidates << ", floored "
             << st.floored << ")";
          return os.str();
        }
        const auto a = by_index(dense.pairs());
        const auto b = by_index(culled.pairs());
        for (std::size_t i = 0; i < a.size(); ++i) {
          if (a[i].sa != b[i].sa || a[i].sb != b[i].sb)
            return "pair identity mismatch at index " + std::to_string(i);
          if (a[i].q != b[i].q) {
            std::ostringstream os;
            os << "bound mismatch on pair (" << a[i].sa << "," << a[i].sb
               << "): dense " << a[i].q << " culled " << b[i].q;
            return os.str();
          }
        }
        if (dense.max_q() != culled.max_q()) return "max_q mismatch";
        return "";
      });
}

TEST(PropertyScaling, CellListCandidatesCoverSurvivingPairs) {
  // Stronger than list equality: every pair the dense sweep keeps must
  // have been proposed by the cell list (the no-false-negative
  // guarantee the culled build rests on), independently of the eps and
  // floor filters downstream.
  MTHFX_PROPERTY(
      "PropertyScaling.CellListCandidatesCoverSurvivingPairs",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const chem::Molecule mol = mt::random_molecule(rng, spread_spec());
        const std::string bname = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, bname);

        const hfx::CellList cells(basis, hfx::shell_extent_radii(basis));
        std::vector<std::vector<char>> proposed(basis.num_shells());
        std::vector<std::uint32_t> cand;
        for (std::size_t sa = 0; sa < basis.num_shells(); ++sa) {
          proposed[sa].assign(sa + 1, 0);
          cells.candidates(sa, &cand);
          for (const std::uint32_t sb : cand) proposed[sa][sb] = 1;
          cand.clear();
        }
        const hfx::ShellPairList dense(basis, ints::schwarz_bounds(basis),
                                       1e-10);
        for (const auto& p : dense.pairs())
          if (!proposed[p.sa][p.sb]) {
            std::ostringstream os;
            os << "surviving pair (" << p.sa << "," << p.sb
               << ") q=" << p.q << " was never proposed (" << bname << ")";
            return os.str();
          }
        return "";
      });
}

TEST(PropertyScaling, BlockedJkReplaysDenseBuilder) {
  // O(N^4) oracle per case: quarter of the suite iteration budget.
  MTHFX_PROPERTY_N(
      "PropertyScaling.BlockedJkReplaysDenseBuilder",
      std::max<std::size_t>(1, mt::property_iterations() / 4),
      [](mt::Rng& rng, std::size_t) -> std::string {
        mt::MoleculeSpec spec = spread_spec();
        spec.max_atoms = 4;
        spec.box = 18.0;
        const chem::Molecule mol = mt::random_molecule(rng, spec);
        const auto basis = chem::BasisSet::build(mol, "sto-3g");

        hfx::HfxOptions dense_opts;
        dense_opts.num_threads = 1;
        const hfx::FockBuilder dense(basis, dense_opts);

        const la::Matrix p =
            mt::random_symmetric_density(rng, basis.num_functions());
        const auto part = scf::shell_aligned_partition(basis, 32);
        // The blocked side runs the one task-bag build at a drawn thread
        // count; only the summation order may differ from the dense side.
        hfx::HfxOptions blocked_opts;
        blocked_opts.num_threads = 1 + rng.index(8);
        blocked_opts.sparsity.mode = hfx::SparsityMode::kBlocked;
        const hfx::FockBuilder blocked(basis, blocked_opts);
        const auto jk_d = dense.coulomb_exchange(p);
        const auto jk_b = blocked.coulomb_exchange_blocked(
            la::BlockSparseMatrix::from_dense(p, part, 0.0));

        double diff = 0.0;
        for (std::size_t i = 0; i < p.rows(); ++i)
          for (std::size_t j = 0; j < p.cols(); ++j)
            diff = std::max({diff, std::abs(jk_d.j(i, j) - jk_b.j(i, j)),
                             std::abs(jk_d.k(i, j) - jk_b.k(i, j))});
        if (diff > 1e-12) {
          std::ostringstream os;
          os << "blocked J/K deviates from dense by " << diff << " ("
             << mol.size() << " atoms, " << basis.num_functions() << " bf, "
             << blocked_opts.num_threads << " threads)";
          return os.str();
        }
        return "";
      });
}
