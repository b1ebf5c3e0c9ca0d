#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <memory>

#include "obs/registry.hpp"

namespace mthfx::parallel {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = resolve_thread_count(num_threads);
  workers_.reserve(n - 1);
  for (std::size_t t = 1; t < n; ++t)
    workers_.emplace_back([this, t] { worker_loop(t); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    ++epoch_;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t thread_id) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
    }
    if (!job) continue;
    job->per_thread(thread_id);
    if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard lock(mutex_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_region(const std::function<void(std::size_t)>& fn,
                                 obs::Registry* registry) {
  const std::size_t n = num_threads();
  std::function<void(std::size_t)> instrumented;
  if (registry) {
    registry->counter("pool.regions").add(0);
    instrumented = [timer = registry->timer("pool.thread_seconds"),
                    &fn](std::size_t tid) {
      obs::ScopedTimer scope(timer, tid);
      fn(tid);
    };
  }
  const auto& run = registry ? instrumented : fn;
  if (n == 1) {
    run(0);
    return;
  }
  // One job slot: a region from another caller waits here for this one.
  std::lock_guard region(region_mutex_);
  auto job = std::make_shared<Job>();
  job->per_thread = run;
  job->remaining.store(n - 1, std::memory_order_relaxed);
  {
    std::lock_guard lock(mutex_);
    job_ = job;
    ++epoch_;
  }
  cv_start_.notify_all();
  run(0);  // calling thread participates as thread 0
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [&] {
    return job->remaining.load(std::memory_order_acquire) == 0;
  });
  job_.reset();
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    Schedule schedule, std::size_t chunk, obs::Registry* registry) {
  if (end <= begin) return;
  const std::size_t n_threads = num_threads();
  const std::size_t count = end - begin;
  chunk = std::max<std::size_t>(1, chunk);

  switch (schedule) {
    case Schedule::kDynamic: {
      auto counter = std::make_shared<std::atomic<std::size_t>>(begin);
      parallel_region([&, counter](std::size_t tid) {
        while (true) {
          const std::size_t i0 =
              counter->fetch_add(chunk, std::memory_order_relaxed);
          if (i0 >= end) break;
          const std::size_t i1 = std::min(i0 + chunk, end);
          for (std::size_t i = i0; i < i1; ++i) body(i, tid);
        }
      }, registry);
      break;
    }
    case Schedule::kStatic: {
      const std::size_t block = (count + n_threads - 1) / n_threads;
      parallel_region([&](std::size_t tid) {
        const std::size_t i0 = begin + tid * block;
        const std::size_t i1 = std::min(i0 + block, end);
        for (std::size_t i = i0; i < i1; ++i) body(i, tid);
      }, registry);
      break;
    }
    case Schedule::kStaticCyclic: {
      parallel_region([&](std::size_t tid) {
        const std::size_t num_chunks = (count + chunk - 1) / chunk;
        for (std::size_t c = tid; c < num_chunks; c += n_threads) {
          const std::size_t i0 = begin + c * chunk;
          const std::size_t i1 = std::min(i0 + chunk, end);
          for (std::size_t i = i0; i < i1; ++i) body(i, tid);
        }
      }, registry);
      break;
    }
  }
}

}  // namespace mthfx::parallel
