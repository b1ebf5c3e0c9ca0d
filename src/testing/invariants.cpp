#include "testing/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ints/eri.hpp"
#include "ints/schwarz.hpp"
#include "testing/oracles.hpp"

namespace mthfx::testing {

using chem::BasisSet;
using linalg::Matrix;

namespace {

std::string format_quartet(std::size_t a, std::size_t b, std::size_t c,
                           std::size_t d) {
  std::ostringstream os;
  os << "(" << a << " " << b << "|" << c << " " << d << ")";
  return os.str();
}

}  // namespace

InvariantResult check_eri_permutation_symmetry(const BasisSet& basis, Rng& rng,
                                               std::size_t samples,
                                               double tol) {
  const std::size_t ns = basis.num_shells();
  for (std::size_t sample = 0; sample < samples; ++sample) {
    const std::size_t sa = rng.index(ns), sb = rng.index(ns),
                      sc = rng.index(ns), sd = rng.index(ns);
    const auto ref = ints::eri_shell_quartet(basis.shell(sa), basis.shell(sb),
                                             basis.shell(sc), basis.shell(sd));
    // The 7 nontrivial orbit members, each as a fresh shell-level
    // evaluation. perm maps reference indices (i,j,k,l) to the permuted
    // block's index order.
    struct Perm {
      std::size_t s[4];
      std::size_t map[4];  // permuted block index -> reference index slot
      const char* name;
    };
    const Perm perms[] = {
        {{sb, sa, sc, sd}, {1, 0, 2, 3}, "(ba|cd)"},
        {{sa, sb, sd, sc}, {0, 1, 3, 2}, "(ab|dc)"},
        {{sb, sa, sd, sc}, {1, 0, 3, 2}, "(ba|dc)"},
        {{sc, sd, sa, sb}, {2, 3, 0, 1}, "(cd|ab)"},
        {{sd, sc, sa, sb}, {3, 2, 0, 1}, "(dc|ab)"},
        {{sc, sd, sb, sa}, {2, 3, 1, 0}, "(cd|ba)"},
        {{sd, sc, sb, sa}, {3, 2, 1, 0}, "(dc|ba)"},
    };
    for (const Perm& perm : perms) {
      const auto blk = ints::eri_shell_quartet(
          basis.shell(perm.s[0]), basis.shell(perm.s[1]),
          basis.shell(perm.s[2]), basis.shell(perm.s[3]));
      std::size_t idx[4];
      const std::size_t dims[4] = {blk.na, blk.nb, blk.nc, blk.nd};
      for (idx[0] = 0; idx[0] < dims[0]; ++idx[0])
        for (idx[1] = 0; idx[1] < dims[1]; ++idx[1])
          for (idx[2] = 0; idx[2] < dims[2]; ++idx[2])
            for (idx[3] = 0; idx[3] < dims[3]; ++idx[3]) {
              std::size_t r[4];  // reference (i,j,k,l) for this element
              for (int axis = 0; axis < 4; ++axis)
                r[perm.map[axis]] = idx[axis];
              const double want = ref(r[0], r[1], r[2], r[3]);
              const double got = blk(idx[0], idx[1], idx[2], idx[3]);
              if (std::abs(got - want) > tol) {
                InvariantResult res;
                res.ok = false;
                std::ostringstream os;
                os << "ERI permutation symmetry violated: shells "
                   << format_quartet(sa, sb, sc, sd) << " vs " << perm.name
                   << ": " << want << " != " << got << " (|diff| "
                   << std::abs(got - want) << " > " << tol << ")";
                res.detail = os.str();
                return res;
              }
            }
    }
  }
  return {};
}

InvariantResult check_schwarz_bound(const BasisSet& basis, double rel_slack) {
  const Matrix q = ints::schwarz_bounds(basis);
  InvariantResult res;
  for_each_shell_quartet(basis, [&](std::size_t sa, std::size_t sb,
                                    std::size_t sc, std::size_t sd,
                                    const ints::EriBlock& block) {
    double vmax = 0.0;
    for (const double v : block.values) vmax = std::max(vmax, std::abs(v));
    const double bound = q(sa, sb) * q(sc, sd);
    // Truncation-noise allowance (see header): the kernel may have
    // under-computed each diagonal by up to noise_xy and skipped
    // cross-integral primitive combos worth up to nab*ncd*cutoff.
    const double nab = static_cast<double>(basis.shell(sa).num_primitives() *
                                           basis.shell(sb).num_primitives());
    const double ncd = static_cast<double>(basis.shell(sc).num_primitives() *
                                           basis.shell(sd).num_primitives());
    const double qa = std::sqrt(q(sa, sb) * q(sa, sb) +
                                nab * nab * ints::kEriPrimitiveCutoff);
    const double qc = std::sqrt(q(sc, sd) * q(sc, sd) +
                                ncd * ncd * ints::kEriPrimitiveCutoff);
    const double allowed = qa * qc + nab * ncd * ints::kEriPrimitiveCutoff;
    if (vmax <= allowed * (1.0 + rel_slack) + 1e-300) return true;
    res.ok = false;
    std::ostringstream os;
    os << "Schwarz bound violated on shells " << format_quartet(sa, sb, sc, sd)
       << ": max|(ab|cd)| = " << vmax << " > Q_ab*Q_cd = " << bound;
    res.detail = os.str();
    return false;
  });
  return res;
}

InvariantResult check_hermitian(const Matrix& a, double tol,
                                const std::string& label) {
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (std::abs(a(i, j) - a(j, i)) > tol) {
        InvariantResult res;
        res.ok = false;
        std::ostringstream os;
        os << label << " not hermitian at (" << i << "," << j
           << "): |a_ij - a_ji| = " << std::abs(a(i, j) - a(j, i)) << " > "
           << tol;
        res.detail = os.str();
        return res;
      }
  return {};
}

double screening_error_bound(const hfx::HfxStats& stats,
                             const hfx::HfxOptions& options, double pmax,
                             std::size_t max_shell) {
  // Quartets never enumerated because a shell pair was dropped outright:
  // total canonical pair-quartets minus those over surviving pairs. Each
  // dropped pair satisfies Q_ab * max_Q < eps, so any quartet touching
  // it is below eps too.
  const auto canonical = [](std::size_t npairs) {
    return npairs * (npairs + 1) / 2;
  };
  const double lost_pair_quartets = static_cast<double>(
      canonical(stats.num_pairs_unscreened) - canonical(stats.num_pairs));
  const double neglected =
      lost_pair_quartets +
      static_cast<double>(stats.screening.quartets_schwarz_screened) +
      static_cast<double>(stats.screening.quartets_density_screened);
  // Per neglected shell quartet, one matrix element receives at most
  // 8 (orbit members) x max_shell^2 (AO quartets mapping to it)
  // contributions, each bounded by eps * pmax (bare Schwarz / dropped
  // pair) or eps alone (density prune — the density factor is already in
  // the prune test). Folding everything under max(pmax, 1) keeps the
  // bound rigorous for both.
  const double per_quartet = 8.0 * static_cast<double>(max_shell * max_shell) *
                             std::max(pmax, 1.0) * options.eps_schwarz;
  // Computed quartets can still drop individual values below the
  // contribution cutoff inside the digestion kernel.
  const double cutoff_term =
      static_cast<double>(stats.screening.quartets_computed) * 8.0 *
      static_cast<double>(max_shell * max_shell) * std::max(pmax, 1.0) *
      options.contribution_cutoff();
  return neglected * per_quartet + cutoff_term + 1e-14;
}

}  // namespace mthfx::testing
