#include "hfx/grad_contraction.hpp"

#include <algorithm>
#include <cmath>

#include "hfx/screening.hpp"
#include "ints/deriv.hpp"
#include "ints/schwarz.hpp"
#include "parallel/reduce.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::hfx {

using chem::Vec3;
using linalg::Matrix;

std::vector<Vec3> two_electron_gradient(const chem::BasisSet& basis,
                                        const ShellPairList& pairs,
                                        const Matrix& density,
                                        const GradContractionOptions& options,
                                        parallel::ThreadPool& pool) {
  const std::size_t natoms =
      basis.num_shells() == 0
          ? 0
          : 1 + std::max_element(basis.shells().begin(), basis.shells().end(),
                                 [](const chem::Shell& a, const chem::Shell& b) {
                                   return a.atom_index() < b.atom_index();
                                 })->atom_index();
  std::vector<Vec3> grad(natoms, Vec3{0, 0, 0});
  if (pairs.size() == 0) return grad;

  const double ax = options.ax;
  const double eps_grad = options.eps_schwarz * options.safety;
  const Matrix block_max = shell_block_max_density(basis, density);
  double global_pmax = 0.0;
  for (const double v : block_max.flat())
    global_pmax = std::max(global_pmax, v);
  // Upper bound on |Gamma|: a ket is live while q_bra * q_ket * gamma_cap
  // clears eps_grad, and the descending-q sort makes that a prefix.
  const double gamma_cap = (1.0 + ax) * global_pmax * global_pmax;
  // A NaN density walks every ket, so the NaN reaches the gradient.
  const double eps_live = gamma_cap > 0.0 ? eps_grad / gamma_cap : 0.0;

  // Rows and their live ket counts; the chunks are runs of consecutive
  // rows of near-equal ket count, so they depend on the pair list and
  // density alone, never on the threads.
  const std::size_t npairs = pairs.size();
  std::vector<std::size_t> live(npairs);
  std::size_t total = 0;
  for (std::size_t ib = 0; ib < npairs; ++ib)
    total += live[ib] = pairs.live_end(ib, eps_live);
  if (total == 0) return grad;
  const std::vector<std::size_t> chunk_end = parallel::cut_chunks(live);

  // Derivative expansions once per call: npairs * nprim^2 work against
  // the quartets' nprim^4.
  std::vector<ints::ShellPairDeriv> expansions;
  expansions.reserve(npairs);
  for (const ShellPair& pair : pairs.pairs())
    expansions.emplace_back(basis.shell(pair.sa), basis.shell(pair.sb));

  using GradPart = parallel::VectorPart<Vec3>;
  const auto run_chunk = [&](std::size_t begin, std::size_t end,
                             GradPart& part) {
    std::vector<Vec3>& acc = part.v;
    ints::EriGradBlocks dblk;
    for (std::size_t ib = begin; ib < end; ++ib) {
      const ShellPair& bra = pairs[ib];
      const chem::Shell& a = basis.shell(bra.sa);
      const chem::Shell& b = basis.shell(bra.sb);
      const std::size_t oa = basis.first_function(bra.sa);
      const std::size_t ob = basis.first_function(bra.sb);

      // Kets walk the bra's live prefix of the pair list, so each
      // unordered pair-of-pairs is visited exactly once.
      for (std::size_t ik = 0; ik < live[ib]; ++ik) {
        const ShellPair& ket = pairs[ik];
        const double qq = bra.q * ket.q;

        // Density-weighted bound over every block Gamma touches.
        const double gmax =
            block_max(bra.sa, bra.sb) * block_max(ket.sa, ket.sb) +
            0.5 * ax *
                (block_max(bra.sa, ket.sa) * block_max(bra.sb, ket.sb) +
                 block_max(bra.sa, ket.sb) * block_max(bra.sb, ket.sa));
        if (qq * gmax < eps_grad) continue;

        const chem::Shell& c = basis.shell(ket.sa);
        const chem::Shell& dsh = basis.shell(ket.sb);
        const std::size_t oc = basis.first_function(ket.sa);
        const std::size_t od = basis.first_function(ket.sb);

        // Shell-level orbit size of this canonical quartet: the symmetric
        // Gamma absorbs the function-level permutations, so the unique-
        // quartet sum just scales by the count of distinct shell images.
        const double deg = (bra.sa == bra.sb ? 1.0 : 2.0) *
                           (ket.sa == ket.sb ? 1.0 : 2.0) *
                           (ib == ik ? 1.0 : 2.0);

        ints::eri_gradient_quartet(expansions[ib], expansions[ik], dblk);

        // Gamma-weighted sums of the nine blocks, then one update per
        // center.
        double sum[3][3] = {};
        std::size_t idx = 0;
        for (std::size_t i = 0; i < a.num_functions(); ++i)
          for (std::size_t j = 0; j < b.num_functions(); ++j)
            for (std::size_t k = 0; k < c.num_functions(); ++k)
              for (std::size_t l = 0; l < dsh.num_functions(); ++l, ++idx) {
                const double gamma =
                    density(oa + i, ob + j) * density(oc + k, od + l) -
                    0.25 * ax *
                        (density(oa + i, oc + k) * density(ob + j, od + l) +
                         density(oa + i, od + l) * density(ob + j, oc + k));
                if (gamma == 0.0) continue;
                for (std::size_t ctr = 0; ctr < 3; ++ctr)
                  for (std::size_t d = 0; d < 3; ++d)
                    sum[ctr][d] += gamma * dblk.g[ctr][d][idx];
              }
        const std::size_t centers[4] = {a.atom_index(), b.atom_index(),
                                        c.atom_index(), dsh.atom_index()};
        for (std::size_t ctr = 0; ctr < 3; ++ctr)
          for (std::size_t d = 0; d < 3; ++d) {
            const double contrib = 0.5 * deg * sum[ctr][d];
            acc[centers[ctr]][d] += contrib;
            // D center by translational invariance.
            acc[centers[3]][d] -= contrib;
          }
      }
    }
  };

  return parallel::run_chunks(
             chunk_end, &pool,
             [natoms] { return GradPart{std::vector<Vec3>(natoms)}; },
             run_chunk)
      .v;
}

std::vector<Vec3> two_electron_gradient(const chem::BasisSet& basis,
                                        const ShellPairList& pairs,
                                        const Matrix& density,
                                        const GradContractionOptions& options) {
  parallel::ThreadPool pool(options.num_threads);
  return two_electron_gradient(basis, pairs, density, options, pool);
}

std::vector<Vec3> two_electron_gradient(const chem::BasisSet& basis,
                                        const Matrix& density,
                                        const GradContractionOptions& options) {
  const ShellPairList pairs(basis, ints::schwarz_bounds(basis),
                            options.eps_schwarz);
  return two_electron_gradient(basis, pairs, density, options);
}

}  // namespace mthfx::hfx
