#pragma once

// Multi-job execution engine: N worker threads drain the one JobQueue
// and run each job through app::run_structured under a *shared* thread
// budget. Campaigns (mthfx_queue) submit under the empty tenant; the
// service (mthfx_serve) submits under each connection's tenant. Either
// way `submit` is the one place that journals a submission and records
// rejected and shed jobs.
//
// The total budget comes from parallel::resolve_thread_count; each
// concurrent job is capped at budget/concurrency threads, so one
// huge condensed-phase job cannot starve a campaign of small screening
// jobs — it just uses its slice while the others keep flowing.
//
// Each job is its own fault domain: any exception escaping the driver
// (injected faults included) is caught on the worker, retried up to
// `max_job_retries` times — resuming from the job's checkpoint when one
// was written — and finally reported as a failed JobRecord. One job's
// failure never kills the engine.
//
// Metrics land in an obs::Registry under the `engine.*` namespace:
// engine.jobs_submitted / jobs_rejected / jobs_completed / jobs_failed,
// engine.cache_hits / cache_misses, engine.job_retries, and the
// engine.queue_wait_seconds / engine.job_run_seconds timers. Durability
// adds engine.jobs_shed / jobs_degraded / jobs_replayed,
// engine.deadline.expired, and engine.retry.backoff_ms. Named tenants
// add engine.tenant.<id>.* (see queue.hpp).
//
// Durability (docs/engine.md): with `journal_path` set every job
// transition is written ahead to a checksummed journal, and `resume`,
// the one replay loop of every front, restarts a killed run with
// bit-identical physics and zero duplicated SCF work. With `store_dir`
// set the ResultStore writes through to disk, so a resumed campaign's
// cache is warm. Per-job wall-clock deadlines are enforced by a
// watchdog thread that cancels overdue attempts at the next
// SCF-iteration cancellation point; the attempt is retried after a
// seeded jittered exponential backoff.
//
// Job lookup: `status` and `wait` follow every admitted or adopted id,
// so a long-lived front keeps no job table of its own.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/job.hpp"
#include "engine/journal.hpp"
#include "engine/queue.hpp"
#include "engine/result_store.hpp"
#include "fault/cancel.hpp"
#include "obs/registry.hpp"

namespace mthfx::engine {

/// Seeded jittered exponential backoff: attempt k (1-based) waits
/// base_ms * 2^(k-1) capped at max_ms, scaled into
/// [delay*(1-jitter), delay] by a uniform draw that is a pure hash of
/// (seed, job_id, attempt) — so a fixed seed replays the exact delays.
struct BackoffOptions {
  double base_ms = 10.0;
  double max_ms = 1000.0;
  double jitter = 0.5;  ///< jittered fraction of the delay, in [0, 1]
  std::uint64_t seed = 0;
};

double backoff_delay_ms(const BackoffOptions& options, std::uint64_t job_id,
                        std::size_t attempt);

struct EngineOptions {
  std::size_t concurrency = 2;      ///< concurrent jobs (worker threads)
  /// Share and quotas of tenants not listed in `tenants`; a campaign's
  /// one tenant ("") runs under these, so `max_queued` is its backlog
  /// cap. Pending jobs beyond it are rejected, or shed for a
  /// strictly-higher-priority arrival of the same tenant.
  TenantOptions tenant_defaults;
  std::vector<TenantConfig> tenants;
  /// Shared thread budget across all concurrent jobs; 0 resolves to
  /// hardware concurrency via parallel::resolve_thread_count.
  std::size_t total_threads = 0;
  /// Engine-level re-runs of a job whose driver threw (on top of the
  /// per-task retries inside the HFX builder).
  std::size_t max_job_retries = 1;
  bool cache = true;                ///< serve duplicates from ResultStore
  /// When non-empty, each job checkpoints to
  /// <checkpoint_dir>/job_<id>.ckpt and a retried attempt restores from
  /// it, so a re-run resumes instead of starting over.
  std::string checkpoint_dir;
  /// Write-ahead journal file (empty = off). See Journal.
  std::string journal_path;
  /// ResultStore persistence directory (empty = memory only) and its
  /// byte budget (0 = unbounded; LRU eviction above it).
  std::string store_dir;
  std::uint64_t store_max_bytes = 0;
  /// Deadline applied to jobs that don't carry their own
  /// (Job::deadline_seconds); 0 = no deadline.
  double default_deadline_seconds = 0.0;
  /// How often the watchdog scans running attempts for blown deadlines.
  double watchdog_poll_ms = 5.0;
  /// Retry backoff policy (engine-level retries only).
  BackoffOptions backoff;
  /// Graceful degradation: when > 0 and the queue is at least this deep
  /// at pickup, DFT jobs run on a coarsened XC grid (flagged in the
  /// record). 0 disables.
  std::size_t degrade_depth = 0;
};

/// What JobScheduler::resume did. `replay` is the journal as read, for
/// `find` (which ids it saw) and `warnings` (skipped records).
struct ResumeSummary {
  JournalReplay replay;
  std::size_t adopted = 0;  ///< committed jobs served from the journal
  std::size_t from_checkpoint = 0;  ///< resubmitted to restore a checkpoint
};

/// Ids the scheduler tracks (admitted or adopted) and how many of them
/// have a terminal record.
struct JobCounts {
  std::size_t tracked = 0;
  std::size_t terminal = 0;
};

class JobScheduler {
 public:
  explicit JobScheduler(EngineOptions options = {});
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admission-controlled submission under `job.tenant`. An accepted
  /// job is journaled `submitted` (unless `job.journaled`). A rejected
  /// job still produces a JobRecord (state kRejected) in the final
  /// report, as does a pending job displaced by load shedding, whose
  /// record is journaled as committed so a resume never resurrects it.
  Admission submit(Job job);

  /// Withdraw a job that is still pending. The canceled record (state
  /// kCanceled, `note` in error) is journaled as committed and
  /// published. Returns false with `*error` set when the id is not
  /// pending.
  bool cancel(std::uint64_t id, const std::string& note, std::string* error);

  /// Replay `options().journal_path` (nothing to do when empty). Fresh
  /// ids continue above every journaled id. Committed records are
  /// adopted: they join the final report flagged `replayed`, warm the
  /// cache and run no SCF work. Every uncommitted job is resubmitted
  /// under its id as `journaled` — so it is neither journaled twice nor
  /// held to its tenant's backlog cap again — restoring from
  /// <checkpoint_dir>/job_<id>.ckpt when that file exists. Call it once,
  /// before submitting fresh work.
  ResumeSummary resume();

  /// The id's state: kQueued from admission, kRunning from each attempt
  /// start, then its terminal state. nullopt for an id never admitted or
  /// adopted. Thread-safe.
  std::optional<JobState> status(std::uint64_t id) const;

  /// Block until the id has a terminal record and return it; nullopt
  /// when the id is unknown or `timeout_seconds` (> 0; otherwise no
  /// limit) passes first. Every admitted job ends in a record before
  /// drain() returns, so no wait outlives the engine. Thread-safe.
  std::optional<JobRecord> wait(std::uint64_t id, double timeout_seconds);

  JobCounts job_counts() const;

  /// Launch the worker threads (idempotent; submit works before or
  /// after).
  void start();

  /// Close the queue, run every admitted job to completion, join the
  /// workers, and return all records (rejections included) ordered by
  /// job id (rejected jobs, which never get an id, sort first in
  /// submission order).
  std::vector<JobRecord> drain();

  const EngineOptions& options() const { return options_; }
  /// Resolved shared budget and the per-job cap derived from it.
  std::size_t total_threads() const { return total_threads_; }
  std::size_t per_job_threads() const { return per_job_threads_; }

  JobQueue& queue() { return queue_; }
  const JobQueue& queue() const { return queue_; }
  ResultStore& store() { return store_; }
  const ResultStore& store() const { return store_; }
  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

 private:
  struct ActiveAttempt {
    double deadline_seconds = 0.0;
    std::chrono::steady_clock::time_point started;
    std::shared_ptr<fault::CancelToken> token;
  };

  /// An id's state, and once terminal, its record's index in records_.
  struct Tracked {
    JobState state = JobState::kQueued;
    std::size_t record = kNoRecord;
  };
  static constexpr std::size_t kNoRecord = static_cast<std::size_t>(-1);

  void worker_loop(std::size_t worker_id);
  JobRecord execute(Job job, double wait_seconds, std::size_t worker_id);
  /// Adopt a journal-replayed record (see resume).
  void adopt(JobRecord record);
  void mark_running(std::uint64_t id);
  /// Append to the final report and wake `wait`ers.
  void publish(JobRecord record);
  void watchdog_loop();
  void stop_watchdog();

  EngineOptions options_;
  std::size_t total_threads_ = 1;
  std::size_t per_job_threads_ = 1;
  obs::Registry registry_;  ///< before queue_, which registers into it
  JobQueue queue_;
  ResultStore store_;
  Journal journal_;

  obs::Counter c_submitted_, c_rejected_, c_completed_, c_failed_;
  obs::Counter c_cache_hits_, c_cache_misses_, c_retries_;
  obs::Counter c_shed_, c_degraded_, c_replayed_;
  obs::Counter c_deadline_expired_, c_backoff_ms_;
  obs::Timer t_wait_, t_run_;

  // Records in publish order, and every tracked id.
  mutable std::mutex records_mutex_;
  std::condition_variable records_cv_;  ///< a record was published
  std::vector<JobRecord> records_;
  std::unordered_map<std::uint64_t, Tracked> jobs_;

  // Running attempts, scanned by the watchdog for blown deadlines.
  std::mutex active_mutex_;
  std::unordered_map<std::uint64_t, ActiveAttempt> active_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool stopping_ = false;
  std::thread watchdog_;

  std::vector<std::thread> workers_;
  bool started_ = false;
};

}  // namespace mthfx::engine
