#pragma once

// Mapping of HfxSchedule policies onto the threading runtime. Split out of
// the Fock builder so the scheduler-ablation bench can exercise the
// policies against synthetic task sets without touching integrals.

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "hfx/fock_builder.hpp"
#include "obs/registry.hpp"

namespace mthfx::parallel {
class ThreadPool;
}

namespace mthfx::hfx {

/// Failure policy for execute_tasks. A task whose body throws is caught
/// (never a std::terminate in a pool worker), retried in place up to
/// max_retries additional attempts, and only counted in
/// "sched.tasks_executed" once it succeeds — so a body that commits
/// results as its last action gets exactly-once commit for free.
struct RetryOptions {
  std::size_t max_retries = 0;    ///< extra attempts after the first
  double backoff_seconds = 0.0;   ///< sleep backoff_seconds * attempt
};

/// Raised by execute_tasks (on the calling thread, after the parallel
/// region has drained) when one or more tasks exhausted their retry
/// budget. Never a hang, never a silently missing contribution.
struct TaskFailure : std::runtime_error {
  struct Failed {
    std::size_t task = 0;
    std::size_t attempts = 0;
    std::string error;
  };
  explicit TaskFailure(std::vector<Failed> failed_tasks);
  std::vector<Failed> failures;
};

/// Runs of consecutive tasks, the unit the schedule hands to threads:
/// chunk c is tasks [c == 0 ? 0 : end[c - 1], end[c]), run by one thread
/// in index order, each task retried in place before the next starts.
struct TaskChunks {
  std::vector<std::size_t> end;
  /// Optional hooks, called on the chunk's thread before its first task
  /// and after its last one (also when a task exhausted its retries).
  std::function<void(std::size_t chunk, std::size_t thread_id)> begin;
  std::function<void(std::size_t chunk, std::size_t thread_id)> finish;
};

/// Run body(task_index, thread_id) for every task under the policy.
/// Blocks until all tasks are complete. With a registry, records
/// "sched.tasks_executed" per thread (successful commits only), pool
/// occupancy timers, "fault.retries" / "fault.permanent_failures" on the
/// failure path, and (for work stealing) the ws.* steal counters; the
/// registry must have slots for parallel::resolve_thread_count(num_threads)
/// threads. A throwing task is retried in place per `retry`; exhausted
/// budgets surface as TaskFailure. Every task is its own chunk.
void execute_tasks(std::size_t num_tasks, std::size_t num_threads,
                   HfxSchedule schedule,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   obs::Registry* registry = nullptr,
                   const RetryOptions& retry = {});

/// Same contract over caller-cut chunks on a caller-owned pool: the
/// schedule decides only which thread runs which chunk. The pool's
/// region records into `registry` (pool.* occupancy).
void execute_tasks(parallel::ThreadPool& pool, const TaskChunks& chunks,
                   HfxSchedule schedule,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   obs::Registry* registry = nullptr,
                   const RetryOptions& retry = {});

}  // namespace mthfx::hfx
