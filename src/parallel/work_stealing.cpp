#include "parallel/work_stealing.hpp"

namespace mthfx::parallel {

void TaskDeque::push(std::uint64_t task) {
  std::lock_guard lock(mutex_);
  tasks_.push_back(task);
}

std::optional<std::uint64_t> TaskDeque::pop() {
  std::lock_guard lock(mutex_);
  if (tasks_.empty()) return std::nullopt;
  const std::uint64_t t = tasks_.back();
  tasks_.pop_back();
  return t;
}

std::vector<std::uint64_t> TaskDeque::steal_half() {
  std::lock_guard lock(mutex_);
  const std::size_t take = (tasks_.size() + 1) / 2;
  std::vector<std::uint64_t> stolen;
  stolen.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    stolen.push_back(tasks_.front());
    tasks_.pop_front();
  }
  return stolen;
}

std::size_t TaskDeque::size() const {
  std::lock_guard lock(mutex_);
  return tasks_.size();
}

WorkStealingScheduler::WorkStealingScheduler(std::size_t num_threads)
    : deques_(num_threads),
      rng_state_(num_threads),
      per_thread_stats_(num_threads) {
  for (std::size_t t = 0; t < num_threads; ++t)
    rng_state_[t] = static_cast<std::uint32_t>(0x9e3779b9u * (t + 1) | 1u);
}

void WorkStealingScheduler::seed(std::size_t num_tasks) {
  for (std::size_t i = 0; i < num_tasks; ++i)
    deques_[i % deques_.size()].push(i);
}

std::optional<std::uint64_t> WorkStealingScheduler::try_steal(
    std::size_t thread_id, std::size_t victim) {
  StealStats& stats = per_thread_stats_[thread_id];
  ++stats.steals_attempted;
  auto stolen = deques_[victim].steal_half();
  if (stolen.empty()) return std::nullopt;
  ++stats.steals_successful;
  stats.tasks_migrated += stolen.size();
  const std::uint64_t mine = stolen.front();
  for (std::size_t i = 1; i < stolen.size(); ++i)
    deques_[thread_id].push(stolen[i]);
  return mine;
}

std::optional<std::uint64_t> WorkStealingScheduler::next(
    std::size_t thread_id) {
  if (auto t = deques_[thread_id].pop()) return t;

  // Steal: try random victims, then a deterministic sweep so termination
  // detection is exact (all deques observed empty). Both paths go through
  // try_steal so the attempted/successful/migrated counters stay
  // consistent regardless of which path served the steal.
  auto& rng = rng_state_[thread_id];
  const std::size_t n = deques_.size();
  for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
    rng ^= rng << 13;
    rng ^= rng >> 17;
    rng ^= rng << 5;
    const std::size_t victim = rng % n;
    if (victim == thread_id) continue;
    if (auto t = try_steal(thread_id, victim)) return t;
  }
  for (std::size_t victim = 0; victim < n; ++victim) {
    if (victim == thread_id) continue;
    if (auto t = try_steal(thread_id, victim)) return t;
  }
  return std::nullopt;
}

StealStats WorkStealingScheduler::stats() const {
  StealStats total;
  for (const auto& s : per_thread_stats_) {
    total.steals_attempted += s.steals_attempted;
    total.steals_successful += s.steals_successful;
    total.tasks_migrated += s.tasks_migrated;
  }
  return total;
}

void WorkStealingScheduler::record(obs::Registry& registry) const {
  const StealStats total = stats();
  registry.counter("ws.steals_attempted").add(0, total.steals_attempted);
  registry.counter("ws.steals_successful").add(0, total.steals_successful);
  registry.counter("ws.tasks_migrated").add(0, total.tasks_migrated);
}

}  // namespace mthfx::parallel
