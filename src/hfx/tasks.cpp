#include "hfx/tasks.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace mthfx::hfx {

namespace {

// Hermite-box volume term of the cost model, by total angular momentum.
double hermite_volume(int lsum) {
  return static_cast<double>((lsum + 1) * (lsum + 2) * (lsum + 3)) / 6.0;
}

// Measured throughput gain of the batched SIMD kernel over the scalar
// sparse kernel by combined quartet angular momentum (bench_a7, 8-lane
// AVX-512 host; ss ~3.6x down to dd|dd ~2.6x — high-L quartets spend
// relatively more time in the scatter/panel bookkeeping that does not
// vectorize). Only the *ratios* matter: dividing each class's cost by
// its speedup keeps batched task chunks time-even across classes.
double batched_speedup(int lsum) {
  constexpr double kByLsum[] = {3.6, 3.4, 3.1, 3.4, 2.6};
  constexpr int kN = static_cast<int>(std::size(kByLsum));
  return kByLsum[std::min(lsum, kN - 1)];
}

}  // namespace

double estimate_quartet_cost(const chem::BasisSet& basis, const ShellPair& bra,
                             const ShellPair& ket) {
  const auto& a = basis.shell(bra.sa);
  const auto& b = basis.shell(bra.sb);
  const auto& c = basis.shell(ket.sa);
  const auto& d = basis.shell(ket.sb);
  const double prim = static_cast<double>(a.num_primitives()) *
                      static_cast<double>(b.num_primitives()) *
                      static_cast<double>(c.num_primitives()) *
                      static_cast<double>(d.num_primitives());
  const double comp = static_cast<double>(a.num_functions()) *
                      static_cast<double>(b.num_functions()) *
                      static_cast<double>(c.num_functions()) *
                      static_cast<double>(d.num_functions());
  // Hermite contraction grows roughly with the volume of the (t,u,v) box.
  return prim * comp * hermite_volume(a.l() + b.l() + c.l() + d.l());
}

std::vector<QuartetTask> make_tasks(const chem::BasisSet& basis,
                                    const ShellPairList& pairs,
                                    double target_cost, double eps_schwarz,
                                    ints::EriKernel kernel) {
  const std::size_t np = pairs.size();
  std::vector<QuartetTask> tasks;
  if (np == 0) return tasks;

  // The quartet cost model is separable per pair up to the Hermite-box
  // term: cost(b, k) = w_b * w_k * volume(l_b + l_k). Factoring it once
  // makes each quartet cost a table lookup and two multiplies, so the
  // chunking below never re-derives shell data per quartet.
  std::vector<double> weight(np);
  std::vector<int> lsum(np);
  int lmax = 0;
  for (std::size_t i = 0; i < np; ++i) {
    const auto& a = basis.shell(pairs[i].sa);
    const auto& b = basis.shell(pairs[i].sb);
    weight[i] = static_cast<double>(a.num_primitives()) *
                static_cast<double>(b.num_primitives()) *
                static_cast<double>(a.num_functions()) *
                static_cast<double>(b.num_functions());
    lsum[i] = a.l() + b.l();
    lmax = std::max(lmax, lsum[i]);
  }
  std::vector<double> volume(static_cast<std::size_t>(2 * lmax) + 1);
  for (std::size_t l = 0; l < volume.size(); ++l) {
    volume[l] = hermite_volume(static_cast<int>(l));
    if (kernel == ints::EriKernel::kBatched)
      volume[l] /= batched_speedup(static_cast<int>(l));
  }

  // Schwarz-screened quartets cost zero: the builder stops at the end of
  // each row's live prefix (pairs are sorted by descending q), so
  // screened tails are a counter bump, not kernel work.
  //
  // Per-lsum-class prefix sums of the pair weights make any ket-range
  // cost a handful of subtractions: cost(b, [lo, hi)) = w_b * sum_L
  // vol[ls_b + L] * (W_L[hi] - W_L[lo]). Row totals and chunk boundaries
  // then cost O(classes) and O(classes * log np) respectively, so task
  // generation never walks the O(np²) quartet space — the old code
  // re-accumulated every live quartet of every row, which dominated
  // builder setup for distance-culled large-box pair lists.
  const std::size_t nclasses = static_cast<std::size_t>(lmax) + 1;
  std::vector<std::vector<double>> prefix(
      nclasses, std::vector<double>(np + 1, 0.0));
  for (std::size_t i = 0; i < np; ++i) {
    for (std::size_t l = 0; l < nclasses; ++l) {
      prefix[l][i + 1] =
          prefix[l][i] +
          (static_cast<std::size_t>(lsum[i]) == l ? weight[i] : 0.0);
    }
  }
  const auto range_cost = [&](std::size_t b, std::size_t lo,
                              std::size_t hi) -> double {
    double s = 0.0;
    for (std::size_t l = 0; l < nclasses; ++l)
      s += volume[static_cast<std::size_t>(lsum[b]) + l] *
           (prefix[l][hi] - prefix[l][lo]);
    return weight[b] * s;
  };

  for (std::size_t b = 0; b < np; ++b) {
    const std::size_t live = pairs.live_end(b, eps_schwarz);
    if (target_cost <= 0.0 || live == 0) {
      // One task per row. A wholly Schwarz-screened row still gets its
      // zero-cost task so the builder's bulk tail accounting sees it.
      tasks.push_back({static_cast<std::uint32_t>(b), 0,
                       static_cast<std::uint32_t>(b + 1),
                       range_cost(b, 0, live)});
      continue;
    }
    std::size_t begin = 0;
    while (begin < live) {
      // Smallest end in (begin, live] whose chunk cost reaches target.
      std::size_t lo = begin + 1, hi = live;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (range_cost(b, begin, mid) >= target_cost)
          hi = mid;
        else
          lo = mid + 1;
      }
      const double acc = range_cost(b, begin, lo);
      const bool final_chunk = (lo == live);
      // The final chunk absorbs the screened tail [live, b]: the builder
      // breaks at the first failing Schwarz product and bulk-accounts
      // the rest, so the tail costs a counter bump, not kernel work.
      const std::size_t end = final_chunk ? b + 1 : lo;
      tasks.push_back({static_cast<std::uint32_t>(b),
                       static_cast<std::uint32_t>(begin),
                       static_cast<std::uint32_t>(end), acc});
      begin = lo;
    }
  }
  return tasks;
}

double total_cost(const std::vector<QuartetTask>& tasks) {
  double t = 0.0;
  for (const auto& task : tasks) t += task.est_cost;
  return t;
}

}  // namespace mthfx::hfx
