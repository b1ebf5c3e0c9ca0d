#pragma once

// Work-stealing deque (Chase–Lev style, mutex-protected steal side) plus a
// multi-queue scheduler used by the HFX "guided" mode: each thread owns a
// deque seeded with a slice of the task list; when a deque runs dry the
// thread steals half of a random victim's remaining work.
//
// On the real BG/Q the paper's scheme uses a shared atomic counter within
// a node and work requests across nodes; the stealing scheduler here plays
// the cross-node role in the host-side execution and the machine simulator
// models its cost at scale.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/registry.hpp"

namespace mthfx::parallel {

/// Owner pushes/pops at the bottom; thieves steal from the top.
class TaskDeque {
 public:
  void push(std::uint64_t task);
  /// Owner-side pop (LIFO). Empty deque -> nullopt.
  std::optional<std::uint64_t> pop();
  /// Thief-side steal of up to half the remaining tasks (FIFO end).
  std::vector<std::uint64_t> steal_half();
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::deque<std::uint64_t> tasks_;
};

/// Statistics from one work-stealing run, surfaced by the ablation bench.
struct StealStats {
  std::size_t steals_attempted = 0;
  std::size_t steals_successful = 0;
  std::size_t tasks_migrated = 0;
};

/// A set of per-thread deques with victim selection.
class WorkStealingScheduler {
 public:
  explicit WorkStealingScheduler(std::size_t num_threads);

  /// Distribute tasks [0, num_tasks) round-robin across the deques.
  void seed(std::size_t num_tasks);

  /// Next task for `thread_id`: own deque first, then steal.
  /// Returns nullopt when all deques are empty.
  std::optional<std::uint64_t> next(std::size_t thread_id);

  StealStats stats() const;

  /// One thread's counters (valid after that thread has quiesced).
  const StealStats& stats(std::size_t thread_id) const {
    return per_thread_stats_[thread_id];
  }

  /// Record the aggregated steal statistics as `ws.*` counters.
  void record(obs::Registry& registry) const;

 private:
  std::optional<std::uint64_t> try_steal(std::size_t thread_id,
                                         std::size_t victim);

  std::vector<TaskDeque> deques_;
  std::vector<std::uint32_t> rng_state_;
  std::vector<StealStats> per_thread_stats_;
};

}  // namespace mthfx::parallel
