#include "engine/report.hpp"

#include <sstream>

#include "engine/result_store.hpp"

namespace mthfx::engine {

namespace {

const char* task_name(app::Task task) {
  switch (task) {
    case app::Task::kEnergy: return "energy";
    case app::Task::kGradient: return "gradient";
    case app::Task::kMd: return "md";
  }
  return "?";
}

std::string key_hex(std::uint64_t key) {
  std::ostringstream out;
  out << std::hex << key;
  return out.str();
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kRejected: return "rejected";
    case JobState::kCanceled: return "canceled";
  }
  return "?";
}

obs::Json result_record(const app::Input& input,
                        const app::StructuredResult& result) {
  obs::Json record = obs::Json::object();
  record["schema"] = "mthfx.result.v1";

  obs::Json in = obs::Json::object();
  in["method"] = input.method;
  in["basis"] = input.basis;
  in["task"] = task_name(input.task);
  in["charge"] = input.charge;
  in["multiplicity"] = input.multiplicity;
  in["num_atoms"] = input.molecule.size();
  in["num_electrons"] = input.molecule.num_electrons();
  in["eps_schwarz"] = input.eps_schwarz;
  in["threads"] = input.num_threads;
  in["fingerprint"] = key_hex(input_key(input));
  record["input"] = std::move(in);

  obs::Json res = obs::Json::object();
  res["ok"] = result.ok;
  res["converged"] = result.converged;
  res["driver"] = result.reference;
  res["energy"] = result.energy;
  res["scf_iterations"] = result.scf_iterations;
  if (result.reference == "rks" || result.reference == "uks") {
    res["xc_energy"] = result.xc_energy;
    res["exact_exchange_energy"] = result.exact_exchange_energy;
  }
  if (result.reference == "rks") {
    res["homo_lumo_gap_ev"] = result.homo_lumo_gap_ev;
    if (result.converged) res["dipole_debye"] = result.dipole_debye;
  }
  if (!result.gradient.empty()) {
    obs::Json grad = obs::Json::array();
    for (const auto& g : result.gradient) {
      obs::Json row = obs::Json::array();
      row.push_back(g.x);
      row.push_back(g.y);
      row.push_back(g.z);
      grad.push_back(std::move(row));
    }
    res["gradient"] = std::move(grad);
  }
  if (input.task == app::Task::kMd) {
    res["md_frames"] = result.md_frames;
    res["md_max_energy_drift"] = result.md_max_energy_drift;
  }
  record["result"] = std::move(res);
  return record;
}

obs::Json job_record(const JobRecord& record) {
  obs::Json job = obs::Json::object();
  job["id"] = record.id;
  job["name"] = record.name;
  if (!record.tenant.empty()) job["tenant"] = record.tenant;
  job["priority"] = record.priority;
  job["state"] = to_string(record.state);
  if (record.state == JobState::kRejected) {
    job["reject_reason"] = record.reject_reason;
    return job;
  }
  if (record.state == JobState::kCanceled) {
    if (!record.error.empty()) job["error"] = record.error;
    return job;
  }
  job["cache_hit"] = record.cache_hit;
  job["attempts"] = record.attempts;
  job["threads"] = record.threads;
  job["wait_seconds"] = record.wait_seconds;
  job["run_seconds"] = record.run_seconds;
  // Durability annotations, emitted only when set so pre-durability
  // consumers see an unchanged record.
  if (record.replayed) job["replayed"] = true;
  if (record.degraded) {
    job["degraded"] = true;
    job["degrade_note"] = record.degrade_note;
  }
  if (record.deadline_hits > 0) job["deadline_hits"] = record.deadline_hits;
  if (record.backoff_ms > 0.0) job["backoff_ms"] = record.backoff_ms;
  if (!record.error.empty()) job["error"] = record.error;
  job["record"] = result_record(record.input, record.result);
  return job;
}

obs::Json campaign_report(const JobScheduler& scheduler,
                          const std::vector<JobRecord>& records) {
  obs::Json report = obs::Json::object();
  report["schema"] = "mthfx.campaign.v1";

  obs::Json engine = obs::Json::object();
  const EngineOptions& opts = scheduler.options();
  engine["concurrency"] = opts.concurrency;
  engine["queue_capacity"] = opts.tenant_defaults.max_queued;
  engine["total_threads"] = scheduler.total_threads();
  engine["per_job_threads"] = scheduler.per_job_threads();
  engine["max_job_retries"] = opts.max_job_retries;
  engine["cache"] = opts.cache;
  if (!opts.journal_path.empty()) {
    engine["journal_path"] = opts.journal_path;
    engine["journal_appends"] = scheduler.journal().appended();
  }
  if (!opts.store_dir.empty()) engine["store_dir"] = opts.store_dir;
  if (opts.default_deadline_seconds > 0.0)
    engine["default_deadline_seconds"] = opts.default_deadline_seconds;
  report["engine"] = std::move(engine);

  obs::Json queue = obs::Json::object();
  queue["accepted"] = scheduler.queue().accepted();
  queue["rejected"] = scheduler.queue().rejected();
  queue["shed"] = scheduler.queue().shed();
  queue["high_water"] = scheduler.queue().high_water();
  report["queue"] = std::move(queue);

  obs::Json cache = obs::Json::object();
  cache["hits"] = scheduler.store().hits();
  cache["misses"] = scheduler.store().misses();
  cache["entries"] = scheduler.store().size();
  if (scheduler.store().disk_attached()) {
    cache["disk_hits"] = scheduler.store().disk_hits();
    cache["disk_entries"] = scheduler.store().disk_entries();
    cache["disk_bytes"] = scheduler.store().disk_bytes();
    cache["corrupt_misses"] = scheduler.store().corrupt_misses();
    cache["evictions"] = scheduler.store().evictions();
    cache["evicted_bytes"] = scheduler.store().evicted_bytes();
  }
  report["cache"] = std::move(cache);

  report["metrics"] = scheduler.registry().to_json();

  std::size_t done = 0, failed = 0, rejected = 0, canceled = 0;
  obs::Json jobs = obs::Json::array();
  for (const JobRecord& record : records) {
    switch (record.state) {
      case JobState::kDone: ++done; break;
      case JobState::kFailed: ++failed; break;
      case JobState::kRejected: ++rejected; break;
      case JobState::kCanceled: ++canceled; break;
      default: break;
    }
    jobs.push_back(job_record(record));
  }
  report["jobs_done"] = done;
  report["jobs_failed"] = failed;
  report["jobs_rejected"] = rejected;
  if (canceled > 0) report["jobs_canceled"] = canceled;
  report["jobs"] = std::move(jobs);
  return report;
}

}  // namespace mthfx::engine
