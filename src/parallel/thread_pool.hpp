#pragma once

// Persistent thread pool with OpenMP-style parallel loops.
//
// The HFX builder uses `parallel_for` in its dynamic "task bag" mode
// (atomic chunk counter — the scheme the paper scales to millions of BG/Q
// threads) and in a static block-cyclic mode (the baseline the paper
// compares against).
//
// Regions that callers on different threads start on one pool (say, on a
// shared FockBuilder's) are serialised: the second waits for the first to
// end. Regions are not re-entrant: a region body must not start another
// region on the same pool.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mthfx::obs {
class Registry;
}

namespace mthfx::parallel {

/// The one thread-count policy for the whole stack: 0 requests hardware
/// concurrency (never less than 1). ThreadPool and the HFX layer both
/// resolve through this, so per-thread buffers (k_private,
/// thread_busy_seconds, registry slots) can never be sized against a
/// different count than the pool actually runs.
std::size_t resolve_thread_count(std::size_t requested);

enum class Schedule {
  kDynamic,      ///< atomic chunk counter — self-balancing task bag
  kStatic,       ///< contiguous blocks, one per thread
  kStaticCyclic  ///< round-robin chunks (block-cyclic)
};

class ThreadPool {
 public:
  /// `num_threads` == 0 selects hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Run body(i, thread_id) for i in [begin, end) across the pool
  /// (the calling thread participates as thread 0). Blocks until done.
  /// `registry` is passed on to the region (see parallel_region).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    Schedule schedule = Schedule::kDynamic,
                    std::size_t chunk = 1, obs::Registry* registry = nullptr);

  /// Run fn(thread_id) once on every thread (SPMD region). Blocks. With a
  /// registry (sized for >= num_threads() slots) the region counts
  /// "pool.regions" and records each thread's occupancy into the
  /// "pool.thread_seconds" timer.
  void parallel_region(const std::function<void(std::size_t)>& fn,
                       obs::Registry* registry = nullptr);

 private:
  struct Job {
    std::function<void(std::size_t)> per_thread;  // arg: thread id
    std::atomic<std::size_t> remaining{0};
  };

  void worker_loop(std::size_t thread_id);

  std::vector<std::thread> workers_;
  std::mutex region_mutex_;  // held by the caller of a multi-thread region
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::shared_ptr<Job> job_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace mthfx::parallel
