#include "obs/trace.hpp"

#include <algorithm>

namespace mthfx::obs {

Trace::Scope::Scope(Trace& trace, std::string name)
    : trace_(trace.enabled() ? &trace : nullptr) {
  if (trace_ == nullptr) return;
  name_ = std::move(name);
  depth_ = trace_->open(&start_);
}

Trace::Scope::~Scope() {
  if (trace_ != nullptr) trace_->close(std::move(name_), depth_, start_);
}

std::uint32_t Trace::open(double* start) {
  std::lock_guard lock(mutex_);
  *start = epoch_.seconds();
  return open_depth_[std::this_thread::get_id()]++;
}

void Trace::close(std::string name, std::uint32_t depth, double start) {
  const double end = epoch_.seconds();
  std::lock_guard lock(mutex_);
  auto it = open_depth_.find(std::this_thread::get_id());
  if (it != open_depth_.end() && it->second > 0 && --it->second == 0)
    open_depth_.erase(it);
  if (finished_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  finished_.push_back({std::move(name), depth, start, end - start});
}

std::vector<SpanRecord> Trace::spans() const {
  std::lock_guard lock(mutex_);
  return finished_;
}

double Trace::total_seconds(std::string_view name) const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const SpanRecord& s : finished_)
    if (s.name == name) total += s.duration_seconds;
  return total;
}

std::uint64_t Trace::count(std::string_view name) const {
  std::lock_guard lock(mutex_);
  std::uint64_t n = 0;
  for (const SpanRecord& s : finished_)
    if (s.name == name) ++n;
  return n;
}

std::uint64_t Trace::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void Trace::clear() {
  std::lock_guard lock(mutex_);
  finished_.clear();
  dropped_ = 0;
  epoch_.reset();
}

Json Trace::to_json() const {
  std::vector<SpanRecord> sorted = spans();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return a.start_seconds < b.start_seconds;
                   });
  Json arr = Json::array();
  for (const SpanRecord& s : sorted) {
    Json span = Json::object();
    span["name"] = s.name;
    span["depth"] = s.depth;
    span["start_seconds"] = s.start_seconds;
    span["duration_seconds"] = s.duration_seconds;
    arr.push_back(std::move(span));
  }
  Json out = Json::object();
  out["spans"] = std::move(arr);
  out["dropped"] = dropped();
  return out;
}

Trace& global_trace() {
  static Trace trace(/*enabled=*/false);
  return trace;
}

}  // namespace mthfx::obs
