#pragma once

// Shared helpers for the experiment benches (E1-E7, A1-A3): workload
// construction, host-measured task-cost distributions, and paper-style
// table printing.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bgq/simulator.hpp"
#include "chem/basis.hpp"
#include "hfx/fock_builder.hpp"
#include "linalg/eigen.hpp"
#include "ints/one_electron.hpp"
#include "obs/json.hpp"
#include "scf/guess.hpp"
#include "workload/geometries.hpp"
#include "workload/replicate.hpp"

namespace mthfx::bench {

/// Directory for machine-readable bench records; override with
/// MTHFX_BENCH_JSON_DIR (default: working directory).
inline std::string bench_json_dir() {
  const char* dir = std::getenv("MTHFX_BENCH_JSON_DIR");
  return (dir && *dir) ? dir : ".";
}

/// Write one bench's structured record to BENCH_<name>.json. Every
/// experiment bench emits its tables through this alongside the printed
/// version, so scaling claims can be checked by tooling instead of by
/// scraping stdout (schema: docs/observability.md). Each record is
/// stamped with the source revision at configure time (`git_rev`), the
/// `host`, the run `mode` ("full" unless the bench set "smoke") and the
/// `build` (build type, plus the sanitizer if any).
inline void write_bench_json(const std::string& name,
                             const obs::Json& payload) {
  const std::string path = bench_json_dir() + "/BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[json] cannot write %s\n", path.c_str());
    return;
  }
  char host_name[256] = {};
  if (gethostname(host_name, sizeof host_name - 1) != 0) host_name[0] = '\0';
  obs::Json host = obs::Json::object();
  host["name"] = std::string(host_name);
  host["nproc"] = std::thread::hardware_concurrency();
  obs::Json record = payload;
  record["git_rev"] = MTHFX_GIT_REV;
  record["host"] = std::move(host);
  if (!record.find("mode")) record["mode"] = "full";
  record["build"] = MTHFX_BUILD;
  out << record.dump(2) << "\n";
  std::printf("[json] wrote %s\n", path.c_str());
}

/// A host HFX run with per-task timings, used to calibrate the machine
/// simulator.
struct HostCalibration {
  hfx::HfxStats stats;
  std::vector<hfx::TaskCostRecord> records;
  std::size_t nao = 0;
  double wall_seconds = 0.0;
};

/// Run one exchange build on `molecules` propylene-carbonate copies
/// (lattice-replicated) and record per-task costs.
inline HostCalibration calibrate_pc_cluster(int molecules,
                                            double eps = 1e-8) {
  const auto unit = workload::propylene_carbonate();
  const auto cluster = workload::cluster_of(unit, molecules, 9.0);
  const auto basis = chem::BasisSet::build(cluster, "sto-3g");

  const auto s = ints::overlap(basis);
  const auto x = linalg::inverse_sqrt(s);
  const auto p = scf::core_guess_density(basis, cluster, x);

  hfx::HfxOptions opts;
  opts.eps_schwarz = eps;
  opts.record_task_costs = true;
  // Finest granularity (one ket pair per task): at machine scale the
  // makespan tail is set by the largest task, so the calibration must
  // measure the real minimum work unit, as the paper's scheme does.
  opts.target_task_cost = 1.0;
  hfx::FockBuilder builder(basis, opts);
  auto result = builder.exchange(p);

  HostCalibration cal;
  cal.records = std::move(result.stats.task_costs);
  result.stats.task_costs.clear();
  cal.stats = std::move(result.stats);
  cal.nao = basis.num_functions();
  cal.wall_seconds = cal.stats.wall_seconds;
  return cal;
}

/// Host timings at ~10 us granularity carry OS-scheduler noise: an
/// interrupt landing inside one task records as a fake multi-millisecond
/// task. The BG/Q compute-node kernel is noise-free (one of the
/// machine's defining properties), so we winsorize: costs above
/// `cap_over_median` times the median are clipped to that cap.
inline std::vector<hfx::TaskCostRecord> denoised(
    std::vector<hfx::TaskCostRecord> records, double cap_over_median = 20.0) {
  if (records.empty()) return records;
  std::vector<double> secs;
  secs.reserve(records.size());
  for (const auto& r : records) secs.push_back(r.seconds);
  std::nth_element(secs.begin(), secs.begin() + static_cast<std::ptrdiff_t>(secs.size() / 2),
                   secs.end());
  const double cap = cap_over_median * secs[secs.size() / 2];
  if (cap <= 0.0) return records;
  for (auto& r : records) r.seconds = std::min(r.seconds, cap);
  return records;
}

/// Scale the measured workload to a condensed-phase target: quartet-task
/// count grows ~quadratically with molecule count under screening (pair
/// count ~ N * neighbors). We extrapolate with an N^1.7 law between the
/// calibrated cluster and the target (sub-quadratic: Schwarz screening
/// removes far pairs).
inline bgq::SimWorkload scaled_workload(const HostCalibration& cal,
                                        int calibrated_molecules,
                                        int target_molecules) {
  bgq::SimWorkload w;
  const double ratio = static_cast<double>(target_molecules) /
                       static_cast<double>(calibrated_molecules);
  w.num_tasks = static_cast<std::int64_t>(
      static_cast<double>(cal.stats.num_tasks) * std::pow(ratio, 1.7));
  const double nao_target = static_cast<double>(cal.nao) * ratio;
  w.reduction_bytes =
      static_cast<std::int64_t>(8.0 * nao_target * nao_target);
  return w;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_rule() {
  std::printf(
      "--------------------------------------------------------------------"
      "----\n");
}

}  // namespace mthfx::bench
