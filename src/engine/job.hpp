#pragma once

// Job model for the high-throughput screening engine: one Job is one
// complete mthfx calculation (an app::Input) plus queueing metadata. The
// engine turns the single-shot driver into a campaign of such jobs.

#include <cstdint>
#include <string>

#include "app/driver.hpp"
#include "app/input.hpp"

namespace mthfx::engine {

/// What to run. `priority` orders the queue (higher first, FIFO within a
/// level); `name` labels the job in reports ("pc.n2.sto-3g.pbe0").
struct Job {
  std::uint64_t id = 0;  ///< assigned at submission; 0 = unassigned
  std::string name;
  /// Owning tenant: selects the JobQueue backlog the job waits in. Empty
  /// for single-tenant campaign fronts like mthfx_queue. Carried through
  /// journal records so per-tenant accounting survives a resume.
  std::string tenant;
  int priority = 0;
  /// Wall-clock deadline for one attempt; 0 inherits the engine default
  /// (EngineOptions::default_deadline_seconds, 0 = no deadline). An
  /// overdue attempt is cancelled at the next SCF-iteration cancellation
  /// point and retried with backoff.
  double deadline_seconds = 0.0;
  /// Already written to the write-ahead journal: a journal resume
  /// resubmits surviving jobs under their existing `submitted` records.
  /// JobScheduler::submit skips its `submitted` record when set, so a
  /// job is journaled exactly once, and JobQueue::submit does not hold
  /// it to its tenant's backlog cap a second time.
  bool journaled = false;
  app::Input input;
};

enum class JobState : std::uint8_t {
  kQueued,    ///< admitted, pending in its tenant's backlog
  kRunning,   ///< executing on a worker
  kDone,      ///< finished with result.ok
  kFailed,    ///< finished without result.ok, or retries exhausted
  kRejected,  ///< refused at admission, or shed from a full backlog
  kCanceled,  ///< withdrawn by the client before it reached a worker
};

const char* to_string(JobState state);

/// Final accounting for one job: outcome, where the time went, and the
/// typed result. `attempts` counts executions (> 1 means the per-job
/// fault domain retried); `cache_hit` marks a ResultStore serve.
struct JobRecord {
  std::uint64_t id = 0;
  std::string name;
  std::string tenant;             ///< owning tenant ("" = single-tenant)
  int priority = 0;
  JobState state = JobState::kQueued;
  bool cache_hit = false;
  bool replayed = false;          ///< served from the write-ahead journal
  bool degraded = false;          ///< ran under load-shedding degradation
  std::size_t attempts = 0;
  std::size_t deadline_hits = 0;  ///< attempts cancelled by the watchdog
  std::size_t threads = 0;        ///< per-job thread cap it ran under
  double wait_seconds = 0.0;      ///< submission -> worker pickup
  double run_seconds = 0.0;       ///< worker execution (all attempts)
  double backoff_ms = 0.0;        ///< total retry backoff slept
  std::string error;              ///< last failure message (kFailed)
  std::string reject_reason;      ///< admission refusal (kRejected)
  std::string degrade_note;       ///< what degradation changed (kDone)
  app::Input input;               ///< the input as executed (threads capped)
  app::StructuredResult result;   ///< valid when kDone (or best effort)
};

}  // namespace mthfx::engine
