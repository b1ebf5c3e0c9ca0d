// Scaling explorer — interactively sized version of the paper's scaling
// study. Measures the real HFX kernel on this host, then projects the
// measured task-cost distribution onto any BG/Q partition.
//
// Run:  ./build/examples/scaling_explorer [molecules] [target_molecules]
//   molecules         PC copies measured on the host (default 2)
//   target_molecules  condensed-phase system size to project (default 256)

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bgq/simulator.hpp"
#include "chem/basis.hpp"
#include "hfx/fock_builder.hpp"
#include "ints/one_electron.hpp"
#include "linalg/eigen.hpp"
#include "scf/guess.hpp"
#include "workload/geometries.hpp"
#include "workload/replicate.hpp"

int main(int argc, char** argv) {
  using namespace mthfx;
  const int molecules = argc > 1 ? std::atoi(argv[1]) : 2;
  const int target = argc > 2 ? std::atoi(argv[2]) : 256;

  // --- host measurement -------------------------------------------------
  const auto cluster =
      workload::cluster_of(workload::propylene_carbonate(), molecules, 9.0);
  const auto basis = chem::BasisSet::build(cluster, "sto-3g");
  const auto s = ints::overlap(basis);
  const auto x = linalg::inverse_sqrt(s);
  const auto p = scf::core_guess_density(basis, cluster, x);

  std::printf("host workload: %d PC molecules, %zu AOs, %zu shells\n",
              molecules, basis.num_functions(), basis.num_shells());

  hfx::HfxOptions opts;
  opts.eps_schwarz = 1e-8;
  opts.record_task_costs = true;
  opts.target_task_cost = 1.0;  // finest grain: the machine's work unit
  hfx::FockBuilder builder(basis, opts);
  const auto result = builder.exchange(p);
  std::printf("host HFX build: %.3f s, %llu quartets over %zu tasks on %zu "
              "threads\n",
              result.stats.wall_seconds,
              static_cast<unsigned long long>(
                  result.stats.screening.quartets_computed),
              result.stats.num_tasks,
              result.stats.thread_busy_seconds.size());

  // --- machine projection ------------------------------------------------
  const auto dist =
      bgq::EmpiricalCostDistribution::from_records(result.stats.task_costs);
  const double growth = std::pow(
      static_cast<double>(target) / static_cast<double>(molecules), 1.7);
  bgq::SimWorkload w;
  w.num_tasks = static_cast<std::int64_t>(
      static_cast<double>(result.stats.num_tasks) * growth);
  const double nao_target =
      static_cast<double>(basis.num_functions()) * target / molecules;
  w.reduction_bytes = static_cast<std::int64_t>(8.0 * nao_target * nao_target);

  std::printf(
      "\nprojected system: %d molecules -> %lld tasks, %.0f AOs\n", target,
      static_cast<long long>(w.num_tasks), nao_target);
  std::printf("%-7s %-11s %-12s %-11s %-12s\n", "racks", "threads", "time/s",
              "speedup", "efficiency");
  bgq::SimResult base;
  for (int racks : bgq::supported_rack_counts()) {
    const auto machine = bgq::machine_for_racks(racks);
    const auto r = bgq::simulate_step(machine, w, dist);
    if (racks == 1) base = r;
    std::printf("%-7d %-11lld %-12.4f %-11.1f %-12.3f\n", racks,
                static_cast<long long>(machine.num_threads()),
                r.makespan_seconds,
                base.makespan_seconds / r.makespan_seconds,
                bgq::parallel_efficiency(base, r));
  }
  return 0;
}
