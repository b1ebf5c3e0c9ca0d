// A4 — ablation of task granularity: the task bag's chunk size trades
// scheduling overhead (too fine) against makespan tail and imbalance
// (too coarse). The paper's scheme tunes this; here we sweep the task
// target cost on the real kernel and project each resulting task
// population onto the 96-rack machine.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace mthfx;

void granularity_table() {
  bench::print_header(
      "A4: task granularity vs. machine efficiency (PC dimer calibration, "
      "96-rack projection)");

  const auto unit = workload::propylene_carbonate();
  const auto cluster = workload::cluster_of(unit, 2, 9.0);
  const auto basis = chem::BasisSet::build(cluster, "sto-3g");
  const auto s = ints::overlap(basis);
  const auto x = linalg::inverse_sqrt(s);
  const auto p = scf::core_guess_density(basis, cluster, x);

  std::printf("%-16s %-10s %-14s %-16s %-16s\n", "target cost", "tasks",
              "host time/s", "96-rack time/s", "96-rack eff");
  bench::print_rule();

  // 0 is the builder default, one task per bra row.
  for (double target : {0.0, 1.0, 1e4, 1e6, 1e8}) {
    hfx::HfxOptions opts;
    opts.eps_schwarz = 1e-8;
    opts.record_task_costs = true;
    opts.target_task_cost = target;
    hfx::FockBuilder builder(basis, opts);
    auto result = builder.exchange(p);

    const auto dist = bgq::EmpiricalCostDistribution::from_records(
        bench::denoised(result.stats.task_costs));

    bench::HostCalibration cal;
    cal.stats = result.stats;
    cal.nao = basis.num_functions();
    const auto w = bench::scaled_workload(cal, 2, 512);

    const auto machine1 = bgq::machine_for_racks(1);
    const auto machine96 = bgq::machine_for_racks(96);
    const auto r1 = bgq::simulate_step(machine1, w, dist);
    const auto r96 = bgq::simulate_step(machine96, w, dist);
    const double eff = bgq::parallel_efficiency(r1, r96);

    char label[16] = "default (row)";
    if (target > 0.0) std::snprintf(label, sizeof label, "%.0e", target);
    std::printf("%-16s %-10zu %-14.3f %-16.4f %-16.3f\n", label,
                result.stats.num_tasks, result.stats.wall_seconds,
                r96.makespan_seconds, eff);
  }
  std::printf(
      "\nfinest granularity maximizes machine-scale efficiency (the tail "
      "is one quartet); coarse tasks lose efficiency to stragglers but "
      "keep the host's batched kernel full.\n");
}

}  // namespace

int main(int argc, char** argv) {
  granularity_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
