#pragma once

// The engine's one job queue: per-tenant backlogs with admission
// control in front of the worker pool. Campaigns submit under the empty
// tenant ""; the service gives every connection its own tenant id. The
// queue is the engine's backpressure point: `submit` never blocks —
// when the queue is closed, the job is unusable, or the tenant's
// backlog is full, the job is rejected *with a reason*, so a front-end
// can throttle, shed, or report instead of wedging the submitter.
// Workers block in `pop`.
//
// Dispatch: `pop` picks the eligible tenant (pending jobs, under its
// in-flight cap) with the most deficit-round-robin credit, then takes
// that tenant's highest-priority job, FIFO (admission order) within a
// priority level. Each credit round adds `weight` to every eligible
// tenant and a dispatch spends one unit, so tenants at weights 2:1 are
// dispatched 2:1 under saturation; an idle tenant banks nothing. With
// one tenant the order is plain priority-then-FIFO, which keeps a
// campaign's job order deterministic.
//
// Shedding: a strictly-higher-priority arrival at a full backlog
// displaces that tenant's youngest lowest-priority pending job. It
// never crosses tenants, so one tenant's burst cannot evict another's
// work.
//
// Workers report each finished job with `complete`, which returns the
// tenant's in-flight credit. Named tenants count their traffic as
// engine.tenant.<id>.{submitted,admitted,completed,failed,rejected,
// shed,canceled} when a registry is attached; the empty tenant keeps
// its TenantStats but registers no counters.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/job.hpp"
#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"

namespace mthfx::engine {

/// One tenant's share and quotas.
struct TenantOptions {
  /// Relative DRR share; tenants at weights 2:1 are dispatched 2:1 under
  /// saturation. Must be > 0 (fractional weights allowed).
  double weight = 1.0;
  /// Backlog cap: pending (not yet dispatched) jobs of this tenant.
  /// Must be >= 1.
  std::size_t max_queued = 256;
  /// Cap on jobs dispatched to workers and not yet complete; 0 =
  /// unlimited.
  std::size_t max_in_flight = 0;
};

/// A named tenant's configuration (EngineOptions::tenants).
struct TenantConfig {
  std::string id;
  TenantOptions options;
};

/// Snapshot of one tenant's accounting (see JobQueue::stats()).
struct TenantStats {
  TenantOptions options;
  std::size_t queued = 0;     ///< pending, not yet dispatched
  std::size_t in_flight = 0;  ///< dispatched to a worker, not complete
  std::uint64_t submitted = 0;  ///< accepted at admission
  std::uint64_t admitted = 0;   ///< dispatched to a worker
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t canceled = 0;
};

/// Admission verdict. `reason` is empty iff `accepted`. `id` is the
/// admitted job's id. When admission displaced a pending job of the
/// same tenant (load shedding), the victim rides along in `displaced`
/// so the engine can record *why* it was shed.
struct Admission {
  bool accepted = false;
  std::string reason;
  std::uint64_t id = 0;
  std::optional<Job> displaced;
};

/// A popped job plus how long it waited since admission.
struct PoppedJob {
  Job job;
  double wait_seconds = 0.0;
};

class JobQueue {
 public:
  /// `defaults` configures tenants that were never `configure`d. With a
  /// `registry`, named tenants register their counters in it and update
  /// them on `metric_slot`. Throws std::invalid_argument for bad
  /// defaults (see `configure`).
  explicit JobQueue(TenantOptions defaults = {},
                    obs::Registry* registry = nullptr,
                    std::size_t metric_slot = 0);

  /// Register or reconfigure a tenant. Throws std::invalid_argument for
  /// weight <= 0 or max_queued == 0.
  void configure(const std::string& tenant, TenantOptions options);

  /// Admission control under `job.tenant`'s backlog cap. Rejects
  /// (without blocking) when the queue is closed, the job has no
  /// geometry, or the backlog is full and cannot shed. A `journaled`
  /// job was admitted before a restart, so it bypasses the cap. A job
  /// arriving with id 0 is assigned the next id (submission order,
  /// starting at 1); a non-zero id is honored as-is — journal replay
  /// resubmits surviving jobs under their original ids.
  Admission submit(Job job);

  /// Blocks until some tenant can dispatch a job, or the queue is closed
  /// and drained (then returns nullopt).
  std::optional<PoppedJob> pop();

  /// A popped job finished in `state`: returns its tenant's in-flight
  /// credit. Ids must be unique among jobs in flight.
  void complete(std::uint64_t id, JobState state);

  /// Withdraw a pending job. Returns nullopt with `*error` set when the
  /// id is not pending (already dispatched, finished, or unknown).
  std::optional<Job> cancel(std::uint64_t id, std::string* error);

  /// Fresh ids continue above `id` (journal replay adopts ids the queue
  /// never assigned).
  void claim_id(std::uint64_t id);

  /// No further admissions; pending jobs still drain through pop().
  void close();

  /// Blocks until no job is pending or in flight.
  void wait_idle();

  bool closed() const;
  std::size_t depth() const;        ///< pending across all tenants
  std::size_t in_flight() const;    ///< dispatched, not yet complete
  std::size_t high_water() const;   ///< max depth ever reached
  std::uint64_t accepted() const;   ///< accepted at admission (all tenants)
  std::uint64_t rejected() const;   ///< refused at admission (all tenants)
  std::uint64_t shed() const;       ///< pending jobs displaced at a cap

  /// Tenants in first-seen order with their accounting snapshots.
  std::vector<std::pair<std::string, TenantStats>> stats() const;

 private:
  struct Key {
    int priority = 0;
    std::uint64_t seq = 0;  ///< admission order, breaks priority ties
    bool operator<(const Key& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq < other.seq;
    }
  };
  struct Entry {
    Job job;
    double submit_seconds = 0.0;  ///< queue-epoch timestamp
  };
  struct Tenant {
    std::string id;
    std::map<Key, Entry> pending;
    double deficit = 0.0;
    TenantStats totals;  ///< `queued` mirrored from `pending` on read
    obs::Counter c_submitted, c_admitted, c_completed, c_failed;
    obs::Counter c_rejected, c_shed, c_canceled;
  };

  Tenant& tenant_locked(const std::string& id);
  Tenant* pick_locked();
  Admission reject_locked(Tenant& t, std::string reason);
  bool eligible(const Tenant& t) const;
  std::uint64_t sum(std::uint64_t TenantStats::*field) const;

  const TenantOptions defaults_;
  obs::Registry* const registry_;
  const std::size_t slot_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;       ///< a job became dispatchable
  std::condition_variable idle_cv_;  ///< nothing pending or in flight
  obs::Stopwatch epoch_;
  std::vector<std::unique_ptr<Tenant>> tenants_;  ///< first-seen order
  std::unordered_map<std::string, Tenant*> by_name_;
  std::unordered_map<std::uint64_t, Tenant*> running_;
  std::size_t cursor_ = 0;  ///< DRR scan origin in tenants_
  std::size_t depth_ = 0;
  bool closed_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace mthfx::engine
