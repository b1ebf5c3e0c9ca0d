#include "engine/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"
#include "obs/stopwatch.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::engine {

namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

}  // namespace

double backoff_delay_ms(const BackoffOptions& options, std::uint64_t job_id,
                        std::size_t attempt) {
  const std::size_t exponent = attempt > 0 ? attempt - 1 : 0;
  double delay = options.base_ms * std::pow(2.0, static_cast<double>(exponent));
  delay = std::min(delay, options.max_ms);
  std::uint64_t h = fault::mix64(options.seed ^ fault::mix64(job_id));
  h = fault::mix64(h ^ static_cast<std::uint64_t>(attempt));
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return delay * (1.0 - options.jitter * u);
}

JobScheduler::JobScheduler(EngineOptions options)
    : options_(std::move(options)),
      total_threads_(parallel::resolve_thread_count(options_.total_threads)),
      // One metric slot per worker, one shared by submitter threads
      // (slot `concurrency`), one for the watchdog (`concurrency + 1`).
      registry_(std::max<std::size_t>(options_.concurrency, 1) + 2),
      queue_(options_.tenant_defaults, &registry_, options_.concurrency) {
  if (options_.concurrency == 0)
    throw std::invalid_argument("JobScheduler: concurrency must be >= 1");
  for (const TenantConfig& tenant : options_.tenants)
    queue_.configure(tenant.id, tenant.options);
  if (!(options_.backoff.jitter >= 0.0 && options_.backoff.jitter <= 1.0))
    throw std::invalid_argument(
        "JobScheduler: backoff.jitter must be in [0, 1]");
  if (options_.backoff.base_ms < 0.0 || options_.backoff.max_ms < 0.0)
    throw std::invalid_argument(
        "JobScheduler: backoff delays must be >= 0");
  per_job_threads_ =
      std::max<std::size_t>(1, total_threads_ / options_.concurrency);
  c_submitted_ = registry_.counter("engine.jobs_submitted");
  c_rejected_ = registry_.counter("engine.jobs_rejected");
  c_completed_ = registry_.counter("engine.jobs_completed");
  c_failed_ = registry_.counter("engine.jobs_failed");
  c_cache_hits_ = registry_.counter("engine.cache_hits");
  c_cache_misses_ = registry_.counter("engine.cache_misses");
  c_retries_ = registry_.counter("engine.job_retries");
  c_shed_ = registry_.counter("engine.jobs_shed");
  c_degraded_ = registry_.counter("engine.jobs_degraded");
  c_replayed_ = registry_.counter("engine.jobs_replayed");
  c_deadline_expired_ = registry_.counter("engine.deadline.expired");
  c_backoff_ms_ = registry_.counter("engine.retry.backoff_ms");
  t_wait_ = registry_.timer("engine.queue_wait_seconds");
  t_run_ = registry_.timer("engine.job_run_seconds");
  if (!options_.store_dir.empty())
    store_.attach_disk(options_.store_dir, options_.store_max_bytes);
  if (!options_.journal_path.empty()) journal_.open(options_.journal_path);
  if (!options_.checkpoint_dir.empty()) {
    // Jobs checkpoint mid-attempt via atomic_write, which does not
    // create parent directories; a missing directory would fail every
    // job instead of disabling checkpoints.
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
  }
}

JobScheduler::~JobScheduler() {
  queue_.close();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  stop_watchdog();
}

void JobScheduler::publish(JobRecord record) {
  {
    std::lock_guard<std::mutex> lock(records_mutex_);
    if (record.id != 0) jobs_[record.id] = {record.state, records_.size()};
    records_.push_back(std::move(record));
  }
  records_cv_.notify_all();
}

void JobScheduler::mark_running(std::uint64_t id) {
  // A running job cannot have been published yet: only pending jobs
  // are canceled or shed.
  std::lock_guard<std::mutex> lock(records_mutex_);
  jobs_[id].state = JobState::kRunning;
}

Admission JobScheduler::submit(Job job) {
  const std::size_t submit_slot = options_.concurrency;  // shared slot
  JobRecord rejected;
  rejected.name = job.name;
  rejected.tenant = job.tenant;
  rejected.priority = job.priority;
  // The journal needs the job's content after the queue takes ownership;
  // copy up front (submission cost is noise next to one SCF iteration).
  Job journaled;
  const bool journaling = journal_.active() && !job.journaled;
  if (journaling) journaled = job;
  Admission admission = queue_.submit(std::move(job));
  if (!admission.accepted) {
    c_rejected_.add(submit_slot);
    rejected.state = JobState::kRejected;
    rejected.reject_reason = admission.reason;
    publish(std::move(rejected));
    return admission;
  }
  c_submitted_.add(submit_slot);
  {
    // try_emplace: a worker may already have started or finished it.
    std::lock_guard<std::mutex> lock(records_mutex_);
    jobs_.try_emplace(admission.id);
  }
  if (journaling) {
    journaled.id = admission.id;
    journal_.record_submitted(journaled);
  }
  if (admission.displaced) {
    c_shed_.add(submit_slot);
    JobRecord shed;
    shed.id = admission.displaced->id;
    shed.name = admission.displaced->name;
    shed.tenant = admission.displaced->tenant;
    shed.priority = admission.displaced->priority;
    shed.state = JobState::kRejected;
    shed.reject_reason = "shed: tenant '" + shed.tenant +
                         "' backlog full, displaced by higher-priority "
                         "submission (id " +
                         std::to_string(admission.id) + ")";
    shed.input = std::move(admission.displaced->input);
    // The victim's `submitted` record is on disk; without a committed
    // record a resume would resurrect it.
    journal_.record_committed(shed);
    publish(std::move(shed));
  }
  return admission;
}

bool JobScheduler::cancel(std::uint64_t id, const std::string& note,
                          std::string* error) {
  std::optional<Job> job = queue_.cancel(id, error);
  if (!job) return false;
  JobRecord canceled;
  canceled.id = id;
  canceled.name = job->name;
  canceled.tenant = job->tenant;
  canceled.priority = job->priority;
  canceled.state = JobState::kCanceled;
  canceled.error = note.empty() ? "canceled by client" : note;
  canceled.input = std::move(job->input);
  journal_.record_committed(canceled);
  publish(std::move(canceled));
  return true;
}

void JobScheduler::adopt(JobRecord record) {
  const std::size_t submit_slot = options_.concurrency;
  record.replayed = true;
  queue_.claim_id(record.id);
  if (record.state == JobState::kDone && options_.cache && record.result.ok)
    store_.insert(input_key(record.input), record.result);
  c_replayed_.add(submit_slot);
  publish(std::move(record));
}

ResumeSummary JobScheduler::resume() {
  ResumeSummary summary;
  if (options_.journal_path.empty()) return summary;
  summary.replay = Journal::replay(options_.journal_path);
  // Fresh ids continue above every journaled id, including ids whose
  // resubmission is refused, so no id is ever handed out twice.
  queue_.claim_id(summary.replay.max_id());
  for (const ReplayedJob& prior : summary.replay.jobs) {
    if (prior.committed) {
      adopt(prior.record);
      ++summary.adopted;
      continue;
    }
    Job job = prior.job;
    job.journaled = true;  // its submitted record is already on disk
    if (!options_.checkpoint_dir.empty()) {
      const std::string ckpt = options_.checkpoint_dir + "/job_" +
                               std::to_string(job.id) + ".ckpt";
      if (file_exists(ckpt)) {
        job.input.restore_path = ckpt;
        ++summary.from_checkpoint;
      }
    }
    submit(std::move(job));
  }
  return summary;
}

std::optional<JobState> JobScheduler::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.state;
}

std::optional<JobRecord> JobScheduler::wait(std::uint64_t id,
                                            double timeout_seconds) {
  std::unique_lock<std::mutex> lock(records_mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Tracked& job = it->second;  // map references survive rehashing
  auto terminal = [&job] { return job.record != kNoRecord; };
  if (timeout_seconds > 0.0) {
    if (!records_cv_.wait_for(
            lock, std::chrono::duration<double>(timeout_seconds), terminal))
      return std::nullopt;
  } else {
    records_cv_.wait(lock, terminal);
  }
  return records_[job.record];
}

JobCounts JobScheduler::job_counts() const {
  std::lock_guard<std::mutex> lock(records_mutex_);
  JobCounts counts;
  counts.tracked = jobs_.size();
  for (const auto& [id, job] : jobs_)
    if (job.record != kNoRecord) ++counts.terminal;
  return counts;
}

void JobScheduler::start() {
  if (started_) return;
  started_ = true;
  watchdog_ = std::thread([this] { watchdog_loop(); });
  workers_.reserve(options_.concurrency);
  for (std::size_t w = 0; w < options_.concurrency; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

std::vector<JobRecord> JobScheduler::drain() {
  start();
  queue_.close();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
  stop_watchdog();
  std::vector<JobRecord> sorted;
  {
    // Sort a copy: `wait` indexes records_ in publish order.
    std::lock_guard<std::mutex> lock(records_mutex_);
    sorted = records_;
  }
  // Rejected jobs never get an id (0) and sort first, in submission
  // order; executed jobs follow in id order.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const JobRecord& a, const JobRecord& b) {
                     return a.id < b.id;
                   });
  return sorted;
}

void JobScheduler::worker_loop(std::size_t worker_id) {
  while (auto popped = queue_.pop()) {
    t_wait_.add_seconds(worker_id, popped->wait_seconds);
    JobRecord record =
        execute(std::move(popped->job), popped->wait_seconds, worker_id);
    t_run_.add_seconds(worker_id, record.run_seconds);
    // Settle the tenant's books before announcing the record, so a
    // client that sees the result also sees it in the tenant's stats.
    queue_.complete(record.id, record.state);
    publish(std::move(record));
  }
}

void JobScheduler::watchdog_loop() {
  const std::size_t slot = options_.concurrency + 1;
  const auto poll = std::chrono::duration<double, std::milli>(
      std::max(options_.watchdog_poll_ms, 0.5));
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!stopping_) {
    watchdog_cv_.wait_for(lock, poll);
    if (stopping_) break;
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> active_lock(active_mutex_);
    for (auto& [id, attempt] : active_) {
      if (attempt.deadline_seconds <= 0.0 || attempt.token->cancelled())
        continue;
      const double elapsed =
          std::chrono::duration<double>(now - attempt.started).count();
      if (elapsed > attempt.deadline_seconds) {
        attempt.token->cancel("deadline: exceeded " +
                              std::to_string(attempt.deadline_seconds) +
                              " s (job " + std::to_string(id) + ")");
        c_deadline_expired_.add(slot);
      }
    }
  }
}

void JobScheduler::stop_watchdog() {
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    stopping_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

JobRecord JobScheduler::execute(Job job, double wait_seconds,
                                std::size_t worker_id) {
  JobRecord record;
  record.id = job.id;
  record.name = job.name;
  record.tenant = job.tenant;
  record.priority = job.priority;
  record.wait_seconds = wait_seconds;

  app::Input input = std::move(job.input);
  // Shared-budget cap: a job may ask for fewer threads than its slice,
  // never more.
  const std::size_t requested =
      input.num_threads == 0 ? per_job_threads_
                             : parallel::resolve_thread_count(input.num_threads);
  input.num_threads = std::min(requested, per_job_threads_);
  record.threads = input.num_threads;

  // Graceful degradation: under sustained saturation, buy queue drain
  // rate by coarsening the XC grid of DFT jobs. The record is flagged so
  // downstream analysis knows these numbers ran at reduced quality.
  if (options_.degrade_depth > 0 &&
      queue_.depth() >= options_.degrade_depth && input.method != "hf" &&
      input.task != app::Task::kMd) {
    const int coarse_radial = std::min(input.grid_radial, 20);
    const int coarse_angular = std::min(input.grid_angular, 26);
    if (coarse_radial != input.grid_radial ||
        coarse_angular != input.grid_angular) {
      record.degraded = true;
      record.degrade_note =
          "queue saturated: XC grid " + std::to_string(input.grid_radial) +
          "x" + std::to_string(input.grid_angular) + " -> " +
          std::to_string(coarse_radial) + "x" +
          std::to_string(coarse_angular);
      input.grid_radial = coarse_radial;
      input.grid_angular = coarse_angular;
      c_degraded_.add(worker_id);
    }
  }

  const std::uint64_t key = input_key(input);
  if (options_.cache) {
    if (auto cached = store_.lookup(key)) {
      c_cache_hits_.add(worker_id);
      record.cache_hit = true;
      record.state = cached->ok ? JobState::kDone : JobState::kFailed;
      record.result = std::move(*cached);
      record.input = std::move(input);
      journal_.record_committed(record);
      return record;
    }
    c_cache_misses_.add(worker_id);
  }

  // Per-job fault domain: checkpoint to a job-private file, restore from
  // it on retry, and give each retry an independent fault draw (the
  // injector is seed-deterministic, so attempt k re-seeds as seed + k;
  // recovered faults cannot change the numbers, see docs/resilience.md).
  if (!options_.checkpoint_dir.empty() && input.checkpoint_path.empty())
    input.checkpoint_path = options_.checkpoint_dir + "/job_" +
                            std::to_string(job.id) + ".ckpt";
  const std::uint64_t base_fault_seed = input.fault.seed;
  const double deadline = job.deadline_seconds > 0.0
                              ? job.deadline_seconds
                              : options_.default_deadline_seconds;

  const std::size_t max_attempts = options_.max_job_retries + 1;
  while (true) {
    ++record.attempts;
    journal_.record_started(job.id, record.attempts);
    mark_running(job.id);
    std::string fail_reason = "exception";
    if (deadline > 0.0) {
      auto token = std::make_shared<fault::CancelToken>();
      input.cancel = token;
      std::lock_guard<std::mutex> lock(active_mutex_);
      active_[job.id] = {deadline, std::chrono::steady_clock::now(),
                         std::move(token)};
    }
    obs::Stopwatch attempt_watch;
    try {
      app::StructuredResult result = app::run_structured(input);
      record.run_seconds += attempt_watch.seconds();
      if (deadline > 0.0) {
        std::lock_guard<std::mutex> lock(active_mutex_);
        active_.erase(job.id);
      }
      record.state = result.ok ? JobState::kDone : JobState::kFailed;
      if (!result.ok && record.error.empty())
        record.error = "task reported failure (see report)";
      if (result.ok && options_.cache) store_.insert(key, result);
      if (result.ok)
        c_completed_.add(worker_id);
      else
        c_failed_.add(worker_id);
      record.result = std::move(result);
      input.cancel.reset();
      record.input = std::move(input);
      journal_.record_committed(record);
      return record;
    } catch (const fault::Cancelled& e) {
      record.run_seconds += attempt_watch.seconds();
      record.error = e.what();
      fail_reason = "deadline";
      ++record.deadline_hits;
    } catch (const std::exception& e) {
      record.run_seconds += attempt_watch.seconds();
      record.error = e.what();
    } catch (...) {
      record.run_seconds += attempt_watch.seconds();
      record.error = "unknown exception";
    }
    if (deadline > 0.0) {
      std::lock_guard<std::mutex> lock(active_mutex_);
      active_.erase(job.id);
    }
    if (record.attempts >= max_attempts) {
      journal_.record_attempt_failed(job.id, record.attempts, fail_reason,
                                     record.error, 0.0);
      record.state = JobState::kFailed;
      c_failed_.add(worker_id);
      input.cancel.reset();
      record.input = std::move(input);
      journal_.record_committed(record);
      return record;
    }
    c_retries_.add(worker_id);
    const double delay_ms =
        backoff_delay_ms(options_.backoff, job.id, record.attempts);
    record.backoff_ms += delay_ms;
    c_backoff_ms_.add(worker_id,
                      static_cast<std::uint64_t>(std::llround(delay_ms)));
    journal_.record_attempt_failed(job.id, record.attempts, fail_reason,
                                   record.error, delay_ms);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
    if (!input.checkpoint_path.empty() && file_exists(input.checkpoint_path))
      input.restore_path = input.checkpoint_path;
    if (input.fault.enabled())
      input.fault.seed = base_fault_seed + record.attempts;
  }
}

}  // namespace mthfx::engine
