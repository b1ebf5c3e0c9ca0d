#pragma once

// Span tracing for phase nesting: SCF iteration -> J/K build -> task
// execution -> reduction. A Scope opens a span on construction and
// records it on destruction; depth is tracked per thread, so concurrent
// spans from different threads interleave without corrupting nesting.
//
// Recording takes a mutex, so spans belong at *phase* granularity (an SCF
// iteration, one J/K build), never inside per-quartet loops — those go
// through Registry counters instead. A disabled Trace records nothing: a
// Scope opened on it takes no lock and does no lookup.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/stopwatch.hpp"

namespace mthfx::obs {

struct SpanRecord {
  std::string name;
  std::uint32_t depth = 0;        ///< 0 = outermost on its thread
  double start_seconds = 0.0;     ///< offset from the trace epoch
  double duration_seconds = 0.0;
};

class Trace {
 public:
  explicit Trace(bool enabled = true) : enabled_(enabled) {}

  /// Whether new spans are recorded. A span already open when this
  /// changes keeps its state.
  bool enabled() const { return enabled_.load(); }
  void set_enabled(bool on) { enabled_.store(on); }

  /// RAII span: opens at construction, records at destruction.
  class Scope {
   public:
    Scope(Trace& trace, std::string name);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;  // null when the trace was disabled at construction
    std::string name_;
    std::uint32_t depth_ = 0;
    double start_ = 0.0;
  };

  /// Completed spans in completion order (a parent records after its
  /// children). Snapshot under the lock.
  std::vector<SpanRecord> spans() const;

  /// Total recorded seconds / completions across spans named `name`.
  double total_seconds(std::string_view name) const;
  std::uint64_t count(std::string_view name) const;

  /// Spans recorded but discarded because the buffer was full.
  std::uint64_t dropped() const;

  void clear();

  /// {"spans": [{name, depth, start_seconds, duration_seconds}...],
  ///  "dropped": n} with spans sorted by start time.
  Json to_json() const;

 private:
  friend class Scope;

  // Backstop for long-running processes (an MD trajectory records a few
  // spans per SCF iteration; this bound is far above any sane run).
  static constexpr std::size_t kMaxSpans = 1 << 20;

  std::uint32_t open(double* start);
  void close(std::string name, std::uint32_t depth, double start);

  mutable std::mutex mutex_;
  Stopwatch epoch_;
  std::vector<SpanRecord> finished_;
  std::map<std::thread::id, std::uint32_t> open_depth_;
  std::uint64_t dropped_ = 0;
  std::atomic<bool> enabled_;
};

/// Process-wide trace: lets the CLI collect the SCF/HFX phase hierarchy
/// without threading a Trace through every API. It starts disabled, so
/// processes that never read it (MD runs, the service, benches) neither
/// pay a lock per span nor grow a span buffer; `mthfx_cli --trace`
/// enables it.
Trace& global_trace();

}  // namespace mthfx::obs
