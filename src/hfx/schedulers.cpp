#include "hfx/schedulers.hpp"

#include <chrono>
#include <mutex>
#include <numeric>
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
  TaskChunks chunks;
  chunks.end.resize(num_tasks);
  std::iota(chunks.end.begin(), chunks.end.end(), std::size_t{1});
  execute_tasks(pool, chunks, schedule, body, registry, retry);
}

void execute_tasks(parallel::ThreadPool& pool, const TaskChunks& chunks,
                   HfxSchedule schedule,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   obs::Registry* registry, const RetryOptions& retry) {
  obs::Counter tasks_executed;
  obs::Counter retries;
  obs::Counter permanent_failures;
  if (registry) {
    tasks_executed = registry->counter("sched.tasks_executed");
    retries = registry->counter("fault.retries");
    permanent_failures = registry->counter("fault.permanent_failures");
  }

  FailureLog failure_log;

  // Retry in place: the task keeps its thread and its place in the
  // chunk, so a retried task commits where a clean run would have. Commit
  // accounting happens *after* the body returns, so a throwing attempt is
  // never counted: one increment == one successful task.
  const auto run_task = [&](std::size_t i, std::size_t tid) {
    for (std::size_t attempt = 1;; ++attempt) {
      std::string error;
      try {
        body(i, tid);
        tasks_executed.add(tid);
        return;
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown error";
      }
      if (attempt > retry.max_retries) {
        permanent_failures.add(tid);
        failure_log.add(i, attempt, std::move(error));
        return;
      }
      retries.add(tid);
      backoff_sleep(retry.backoff_seconds, attempt);
    }
  };
  const auto run_chunk = [&](std::size_t c, std::size_t tid) {
    if (chunks.begin) chunks.begin(c, tid);
    for (std::size_t i = c == 0 ? 0 : chunks.end[c - 1]; i < chunks.end[c];
         ++i)
      run_task(i, tid);
    if (chunks.finish) chunks.finish(c, tid);
  };

  const std::size_t num_chunks = chunks.end.size();
  switch (schedule) {
    case HfxSchedule::kDynamicBag:
    case HfxSchedule::kStaticBlock:
    case HfxSchedule::kStaticCyclic: {
      const parallel::Schedule policy =
          schedule == HfxSchedule::kDynamicBag
              ? parallel::Schedule::kDynamic
              : (schedule == HfxSchedule::kStaticBlock
                     ? parallel::Schedule::kStatic
                     : parallel::Schedule::kStaticCyclic);
      pool.parallel_for(0, num_chunks, run_chunk, policy, 1, registry);
      break;
    }
    case HfxSchedule::kWorkStealing: {
      parallel::WorkStealingScheduler ws(pool.num_threads());
      ws.seed(num_chunks);
      pool.parallel_region([&](std::size_t tid) {
        while (auto c = ws.next(tid))
          run_chunk(static_cast<std::size_t>(*c), tid);
      }, registry);
      if (registry) ws.record(*registry);
      break;
    }
  }

  if (!failure_log.failures.empty())
    throw TaskFailure(std::move(failure_log.failures));
}

}  // namespace mthfx::hfx
