// A6 — throughput of the screening engine: jobs/second and queue-wait
// percentiles for a 200-job screening campaign at 1/2/4/8 concurrent
// jobs, against the sequential single-shot baseline (the same inputs run
// one by one through app::run_structured, exactly as mthfx_cli would).
//
// Two campaigns are measured:
//
//   latency-bound — every job carries a deterministic injected stall
//     (fault stall injection, the resilience layer's model of the
//     non-CPU phases a production screening job spends in checkpoint
//     I/O, data staging, and collective waits). Concurrent jobs overlap
//     those stalls, so throughput scales with concurrency even on a
//     single core; this is the regime the acceptance claim (>2x at
//     concurrency 4) targets.
//
//   compute-bound — pure SCF jobs. Concurrency can only help here when
//     per-job thread slices beat one wide job (small screening jobs
//     parallelize poorly inside), so gains track the core count.
//
// Both campaigns verify bit-identical energies between every concurrency
// level and the sequential baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_common.hpp"
#include "engine/report.hpp"
#include "engine/scheduler.hpp"
#include "fault/injector.hpp"
#include "parallel/thread_pool.hpp"
#include "workload/geometries.hpp"

namespace {

using namespace mthfx;

engine::Job make_job(const chem::Molecule& mol, int index, bool stall) {
  engine::Job job;
  job.name = "screen." + std::to_string(index);
  job.input.method = "hf";
  job.input.basis = "sto-3g";
  job.input.eps_schwarz = 1e-8;
  job.input.molecule = mol;
  if (stall) {
    // Deterministic stall on every task: the injected model of the
    // job's non-CPU time (I/O, staging, collectives).
    job.input.fault.stall_rate = 1.0;
    job.input.fault.stall_seconds = 2e-3;
    job.input.fault.seed = 1234 + static_cast<std::uint64_t>(index);
  }
  return job;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

struct CampaignMeasurement {
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  double wait_p50_ms = 0.0, wait_p90_ms = 0.0, wait_p99_ms = 0.0;
  std::size_t done = 0, failed = 0;
  std::vector<double> energies;  ///< by job id, for bit-identity checks
};

CampaignMeasurement run_concurrent(const std::vector<engine::Job>& jobs,
                                   std::size_t concurrency) {
  engine::EngineOptions opts;
  opts.concurrency = concurrency;
  opts.tenant_defaults.max_queued = jobs.size();
  opts.cache = false;  // throughput must come from execution, not reuse
  engine::JobScheduler scheduler(opts);
  scheduler.start();

  obs::Stopwatch watch;
  for (const engine::Job& job : jobs) scheduler.submit(job);
  const auto records = scheduler.drain();

  CampaignMeasurement m;
  m.wall_seconds = watch.seconds();
  m.jobs_per_second = static_cast<double>(jobs.size()) / m.wall_seconds;
  std::vector<double> waits;
  for (const auto& r : records) {
    if (r.state == engine::JobState::kDone)
      ++m.done;
    else
      ++m.failed;
    waits.push_back(r.wait_seconds);
    m.energies.push_back(r.result.energy);  // records are id-ordered
  }
  m.wait_p50_ms = 1e3 * percentile(waits, 0.50);
  m.wait_p90_ms = 1e3 * percentile(waits, 0.90);
  m.wait_p99_ms = 1e3 * percentile(waits, 0.99);
  return m;
}

CampaignMeasurement run_sequential(const std::vector<engine::Job>& jobs) {
  CampaignMeasurement m;
  obs::Stopwatch watch;
  for (const engine::Job& job : jobs) {
    const auto r = app::run_structured(job.input);
    if (r.ok)
      ++m.done;
    else
      ++m.failed;
    m.energies.push_back(r.energy);
  }
  m.wall_seconds = watch.seconds();
  m.jobs_per_second = static_cast<double>(jobs.size()) / m.wall_seconds;
  return m;
}

bool bit_identical(const CampaignMeasurement& a,
                   const CampaignMeasurement& b) {
  return a.energies == b.energies;  // exact double comparison, on purpose
}

obs::Json measurement_json(const CampaignMeasurement& m) {
  obs::Json row = obs::Json::object();
  row["wall_seconds"] = m.wall_seconds;
  row["jobs_per_second"] = m.jobs_per_second;
  row["wait_p50_ms"] = m.wait_p50_ms;
  row["wait_p90_ms"] = m.wait_p90_ms;
  row["wait_p99_ms"] = m.wait_p99_ms;
  row["done"] = m.done;
  row["failed"] = m.failed;
  return row;
}

obs::Json throughput_table(const std::string& title,
                           const std::vector<engine::Job>& jobs,
                           double* speedup_c4_out) {
  bench::print_header(title);
  const auto seq = run_sequential(jobs);
  std::printf("%-14s %12s %10s %10s %10s %10s %6s\n", "mode", "jobs/s",
              "wall/s", "p50 wait", "p90 wait", "p99 wait", "bit=");
  bench::print_rule();
  std::printf("%-14s %12.2f %10.3f %10s %10s %10s %6s\n", "sequential",
              seq.jobs_per_second, seq.wall_seconds, "-", "-", "-", "ref");

  obs::Json rows = obs::Json::array();
  for (const std::size_t concurrency : {1u, 2u, 4u, 8u}) {
    const auto m = run_concurrent(jobs, concurrency);
    const bool identical = bit_identical(m, seq);
    const double speedup = m.jobs_per_second / seq.jobs_per_second;
    if (concurrency == 4 && speedup_c4_out) *speedup_c4_out = speedup;
    std::printf("%-14s %12.2f %10.3f %9.2fms %9.2fms %9.2fms %6s\n",
                ("concurrency " + std::to_string(concurrency)).c_str(),
                m.jobs_per_second, m.wall_seconds, m.wait_p50_ms,
                m.wait_p90_ms, m.wait_p99_ms, identical ? "yes" : "NO");
    obs::Json row = measurement_json(m);
    row["concurrency"] = concurrency;
    row["speedup_vs_sequential"] = speedup;
    row["bit_identical_to_sequential"] = identical;
    rows.push_back(std::move(row));
  }
  obs::Json table = obs::Json::object();
  table["num_jobs"] = jobs.size();
  table["sequential"] = measurement_json(seq);
  table["rows"] = std::move(rows);
  return table;
}

void throughput_tables() {
  const auto h2 = workload::h2();
  const int num_jobs = 200;

  std::vector<engine::Job> latency_jobs, compute_jobs;
  for (int i = 0; i < num_jobs; ++i) {
    latency_jobs.push_back(make_job(h2, i, /*stall=*/true));
    compute_jobs.push_back(make_job(h2, i, /*stall=*/false));
  }

  double speedup_latency = 0.0, speedup_compute = 0.0;
  obs::Json record = obs::Json::object();
  record["latency_bound"] = throughput_table(
      "A6: engine throughput, latency-bound 200-job campaign (2 ms "
      "injected stall per task = modeled I/O/staging time)",
      latency_jobs, &speedup_latency);
  record["compute_bound"] = throughput_table(
      "A6: engine throughput, compute-bound 200-job campaign (pure SCF; "
      "gains track the core count)",
      compute_jobs, &speedup_compute);
  record["speedup_c4_latency"] = speedup_latency;
  record["speedup_c4_compute"] = speedup_compute;
  record["claim_c4_over_2x"] = speedup_latency > 2.0;

  std::printf(
      "\nconcurrency-4 speedup: %.2fx latency-bound (claim >2x: %s), "
      "%.2fx compute-bound on %zu core(s)\n",
      speedup_latency, speedup_latency > 2.0 ? "yes" : "NO",
      speedup_compute, parallel::resolve_thread_count(0));

  bench::write_bench_json("a6_throughput", record);
}

}  // namespace

int main(int argc, char** argv) {
  throughput_tables();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
