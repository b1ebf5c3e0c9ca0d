#include "hfx/schedulers.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"

namespace mthfx::hfx {

namespace {

std::string task_failure_message(const std::vector<TaskFailure::Failed>& f) {
  std::string msg = std::to_string(f.size()) +
                    " task(s) exhausted their retry budget";
  if (!f.empty())
    msg += " (first: task " + std::to_string(f.front().task) + " after " +
           std::to_string(f.front().attempts) + " attempts: " +
           f.front().error + ")";
  return msg;
}

void backoff_sleep(double backoff_seconds, std::size_t attempt) {
  if (backoff_seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(
      backoff_seconds * static_cast<double>(attempt)));
}

/// Mutex-protected sink for permanently failed tasks; drained into a
/// TaskFailure on the calling thread once the region has quiesced.
struct FailureLog {
  void add(std::size_t task, std::size_t attempts, std::string error) {
    std::lock_guard lock(mutex);
    failures.push_back({task, attempts, std::move(error)});
  }
  std::mutex mutex;
  std::vector<TaskFailure::Failed> failures;
};

}  // namespace

TaskFailure::TaskFailure(std::vector<Failed> failed_tasks)
    : std::runtime_error(task_failure_message(failed_tasks)),
      failures(std::move(failed_tasks)) {}

void execute_tasks(std::size_t num_tasks, std::size_t num_threads,
                   HfxSchedule schedule,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   obs::Registry* registry, const RetryOptions& retry) {
  parallel::ThreadPool pool(num_threads);
  execute_tasks(pool, num_tasks, schedule, body, registry, retry);
}

void execute_tasks(parallel::ThreadPool& pool, std::size_t num_tasks,
                   HfxSchedule schedule,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   obs::Registry* registry, const RetryOptions& retry) {
  pool.set_registry(registry);

  obs::Counter tasks_executed;
  obs::Counter retries;
  obs::Counter permanent_failures;
  if (registry) {
    tasks_executed = registry->counter("sched.tasks_executed");
    retries = registry->counter("fault.retries");
    permanent_failures = registry->counter("fault.permanent_failures");
  }
  // Commit accounting happens *after* the body returns, so a throwing
  // attempt is never counted: one increment == one successful task.
  const auto run = [&](std::size_t i, std::size_t tid) {
    body(i, tid);
    tasks_executed.add(tid);
  };

  FailureLog failure_log;

  switch (schedule) {
    case HfxSchedule::kDynamicBag:
    case HfxSchedule::kStaticBlock:
    case HfxSchedule::kStaticCyclic: {
      // parallel_for policies retry in place: the iteration owns its
      // index, so the failed task cannot migrate anyway.
      const auto with_retry = [&](std::size_t i, std::size_t tid) {
        for (std::size_t attempt = 1;; ++attempt) {
          try {
            run(i, tid);
            return;
          } catch (const std::exception& e) {
            if (attempt > retry.max_retries) {
              permanent_failures.add(tid);
              failure_log.add(i, attempt, e.what());
              return;
            }
          } catch (...) {
            if (attempt > retry.max_retries) {
              permanent_failures.add(tid);
              failure_log.add(i, attempt, "unknown error");
              return;
            }
          }
          retries.add(tid);
          backoff_sleep(retry.backoff_seconds, attempt);
        }
      };
      const parallel::Schedule policy =
          schedule == HfxSchedule::kDynamicBag
              ? parallel::Schedule::kDynamic
              : (schedule == HfxSchedule::kStaticBlock
                     ? parallel::Schedule::kStatic
                     : parallel::Schedule::kStaticCyclic);
      pool.parallel_for(0, num_tasks, with_retry, policy);
      break;
    }
    case HfxSchedule::kWorkStealing: {
      parallel::WorkStealingScheduler ws(pool.num_threads());
      ws.seed(num_tasks);
      // Shared per-task attempt counts: a re-queued task may be stolen
      // and retried by a different thread than the one it failed on.
      auto attempts = std::make_unique<std::atomic<std::uint32_t>[]>(
          num_tasks);
      pool.parallel_region([&](std::size_t tid) {
        while (auto task = ws.next(tid)) {
          const std::size_t i = static_cast<std::size_t>(*task);
          std::string error;
          try {
            run(i, tid);
            continue;
          } catch (const std::exception& e) {
            error = e.what();
          } catch (...) {
            error = "unknown error";
          }
          const std::size_t attempt =
              attempts[i].fetch_add(1, std::memory_order_relaxed) + 1;
          if (attempt > retry.max_retries) {
            permanent_failures.add(tid);
            failure_log.add(i, attempt, std::move(error));
          } else {
            retries.add(tid);
            backoff_sleep(retry.backoff_seconds, attempt);
            ws.requeue(tid, *task);
          }
        }
      });
      if (registry) ws.record(*registry);
      break;
    }
  }

  if (!failure_log.failures.empty())
    throw TaskFailure(std::move(failure_log.failures));
}

}  // namespace mthfx::hfx
