// A2 — ablation of the screening stages (DESIGN.md design choice #2):
// quartet counts and wall time with (a) no screening, (b) Schwarz only,
// (c) Schwarz + density screening, across system sizes. Run on the real
// kernel.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace mthfx;

void screening_cost_table() {
  bench::print_header(
      "A2: screening-stage ablation on water clusters (STO-3G, eps=1e-8)");
  std::printf("%-10s %-6s %-22s %-22s %-22s\n", "waters", "nao",
              "none: quartets/time", "schwarz: quartets/time",
              "+density: quartets/time");
  bench::print_rule();

  for (int waters : {2, 4, 8}) {
    const auto cluster = workload::cluster_of(workload::water(), waters, 8.0);
    const auto basis = chem::BasisSet::build(cluster, "sto-3g");
    const auto s = ints::overlap(basis);
    const auto x = linalg::inverse_sqrt(s);
    const auto p = scf::core_guess_density(basis, cluster, x);

    auto run = [&](double eps, bool density) {
      hfx::HfxOptions opts;
      opts.eps_schwarz = eps;
      opts.density_screening = density;
      const auto r = hfx::FockBuilder(basis, opts).exchange(p);
      return std::make_pair(r.stats.screening.quartets_computed,
                            r.stats.wall_seconds);
    };

    const auto none = run(1e-30, false);
    const auto schwarz = run(1e-8, false);
    const auto density = run(1e-8, true);
    std::printf("%-10d %-6zu %10llu/%-10.4f %10llu/%-10.4f %10llu/%-10.4f\n",
                waters, basis.num_functions(),
                static_cast<unsigned long long>(none.first), none.second,
                static_cast<unsigned long long>(schwarz.first),
                schwarz.second,
                static_cast<unsigned long long>(density.first),
                density.second);
  }
  std::printf(
      "\nscreening work grows sub-quadratically with system size — the "
      "property that keeps the task bag tractable at condensed-phase "
      "scale.\n");
}

// Pair formation: cell-list candidates, one batched Schwarz-diagonal
// call per row, the eps rule and the sort.
void BM_PairFormation(benchmark::State& state) {
  const auto cluster = workload::cluster_of(
      workload::water(), static_cast<int>(state.range(0)), 8.0);
  const auto basis = chem::BasisSet::build(cluster, "sto-3g");
  for (auto _ : state) {
    auto pairs = hfx::ShellPairList::culled(basis, 1e-10);
    benchmark::DoNotOptimize(pairs.max_q());
  }
}
BENCHMARK(BM_PairFormation)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  screening_cost_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
