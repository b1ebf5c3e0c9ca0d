#include "engine/queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mthfx::engine {

namespace {

void validate(const TenantOptions& options, const std::string& what) {
  if (!(options.weight > 0.0))
    throw std::invalid_argument("JobQueue: weight must be > 0 (" + what + ")");
  if (options.max_queued == 0)
    throw std::invalid_argument("JobQueue: max_queued must be >= 1 (" + what +
                                ")");
}

}  // namespace

JobQueue::JobQueue(TenantOptions defaults, obs::Registry* registry,
                   std::size_t metric_slot)
    : defaults_(defaults), registry_(registry), slot_(metric_slot) {
  validate(defaults_, "tenant defaults");
}

JobQueue::Tenant& JobQueue::tenant_locked(const std::string& id) {
  auto it = by_name_.find(id);
  if (it != by_name_.end()) return *it->second;
  auto owned = std::make_unique<Tenant>();
  Tenant& t = *owned;
  t.id = id;
  t.totals.options = defaults_;
  if (registry_ && !id.empty()) {
    const std::string prefix = "engine.tenant." + id + ".";
    t.c_submitted = registry_->counter(prefix + "submitted");
    t.c_admitted = registry_->counter(prefix + "admitted");
    t.c_completed = registry_->counter(prefix + "completed");
    t.c_failed = registry_->counter(prefix + "failed");
    t.c_rejected = registry_->counter(prefix + "rejected");
    t.c_shed = registry_->counter(prefix + "shed");
    t.c_canceled = registry_->counter(prefix + "canceled");
  }
  tenants_.push_back(std::move(owned));
  by_name_.emplace(id, &t);
  return t;
}

void JobQueue::configure(const std::string& tenant, TenantOptions options) {
  validate(options, "tenant '" + tenant + "'");
  std::lock_guard<std::mutex> lock(mutex_);
  tenant_locked(tenant).totals.options = options;
}

bool JobQueue::eligible(const Tenant& t) const {
  const std::size_t cap = t.totals.options.max_in_flight;
  return !t.pending.empty() && (cap == 0 || t.totals.in_flight < cap);
}

Admission JobQueue::reject_locked(Tenant& t, std::string reason) {
  ++t.totals.rejected;
  t.c_rejected.add(slot_);
  return {false, std::move(reason), 0, std::nullopt};
}

Admission JobQueue::submit(Job job) {
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant& t = tenant_locked(job.tenant);
  if (closed_) return reject_locked(t, "queue closed");
  if (job.input.molecule.size() == 0)
    return reject_locked(t, "job '" + job.name + "' has no geometry");
  const TenantOptions& options = t.totals.options;
  Admission admission;
  // A journaled job was admitted before a restart; its resubmission
  // is not held to the cap again.
  if (!job.journaled && t.pending.size() >= options.max_queued) {
    // Backlog full. Shed the tenant's lowest-priority (then youngest)
    // pending job for a strictly-higher-priority newcomer; otherwise
    // reject the arrival, so FIFO fairness within a level is kept.
    auto victim = std::prev(t.pending.end());
    if (job.priority <= victim->first.priority) {
      std::string reason = "tenant quota: '" + t.id + "' queued " +
                           std::to_string(t.pending.size()) + "/" +
                           std::to_string(options.max_queued) +
                           " (in-flight " +
                           std::to_string(t.totals.in_flight);
      if (options.max_in_flight > 0)
        reason += "/" + std::to_string(options.max_in_flight);
      return reject_locked(t, reason + ")");
    }
    admission.displaced = std::move(victim->second.job);
    t.pending.erase(victim);
    --depth_;
    ++t.totals.shed;
    t.c_shed.add(slot_);
  }
  if (job.id == 0)
    job.id = next_id_++;
  else
    next_id_ = std::max(next_id_, job.id + 1);
  ++t.totals.submitted;
  t.c_submitted.add(slot_);
  admission.accepted = true;
  admission.id = job.id;
  t.pending.emplace(Key{job.priority, next_seq_++},
                    Entry{std::move(job), epoch_.seconds()});
  high_water_ = std::max(high_water_, ++depth_);
  cv_.notify_one();  // one more job can be dispatched
  return admission;
}

JobQueue::Tenant* JobQueue::pick_locked() {
  bool any = false;
  for (const auto& t : tenants_) {
    if (eligible(*t))
      any = true;
    else if (t->pending.empty())
      t->deficit = 0.0;  // no banking while idle
  }
  if (!any) return nullptr;
  // Deficit round-robin, one dispatch per pop: credit every eligible
  // tenant its weight until at least one can afford a whole unit, then
  // dispatch from the richest. The scan origin rotates past the chosen
  // tenant so equal credits round-robin instead of favouring first-seen
  // order. Terminates because some tenant is eligible and weights are
  // positive.
  while (true) {
    Tenant* pick = nullptr;
    std::size_t pick_at = 0;
    for (std::size_t visit = 0; visit < tenants_.size(); ++visit) {
      const std::size_t at = (cursor_ + visit) % tenants_.size();
      Tenant& t = *tenants_[at];
      if (!eligible(t) || t.deficit < 1.0) continue;
      if (!pick || t.deficit > pick->deficit) {
        pick = &t;
        pick_at = at;
      }
    }
    if (pick) {
      cursor_ = pick_at + 1;
      return pick;
    }
    for (const auto& t : tenants_)
      if (eligible(*t)) t->deficit += t->totals.options.weight;
  }
}

std::optional<PoppedJob> JobQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  Tenant* t = nullptr;
  cv_.wait(lock, [&] {
    t = pick_locked();
    return t != nullptr || (closed_ && depth_ == 0);
  });
  if (!t) return std::nullopt;  // closed and drained
  t->deficit -= 1.0;
  auto it = t->pending.begin();
  PoppedJob popped{std::move(it->second.job),
                   epoch_.seconds() - it->second.submit_seconds};
  t->pending.erase(it);
  --depth_;
  ++t->totals.in_flight;
  ++t->totals.admitted;
  t->c_admitted.add(slot_);
  running_[popped.job.id] = t;
  if (closed_ && depth_ == 0) cv_.notify_all();  // release idle workers
  return popped;
}

void JobQueue::complete(std::uint64_t id, JobState state) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = running_.find(id);
  if (it == running_.end()) return;
  Tenant& t = *it->second;
  running_.erase(it);
  --t.totals.in_flight;
  if (state == JobState::kDone) {
    ++t.totals.completed;
    t.c_completed.add(slot_);
  } else {
    ++t.totals.failed;
    t.c_failed.add(slot_);
  }
  cv_.notify_one();  // the tenant may be under its cap again
  if (depth_ == 0 && running_.empty()) idle_cv_.notify_all();
}

std::optional<Job> JobQueue::cancel(std::uint64_t id, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& t : tenants_) {
    for (auto it = t->pending.begin(); it != t->pending.end(); ++it) {
      if (it->second.job.id != id) continue;
      Job job = std::move(it->second.job);
      t->pending.erase(it);
      --depth_;
      ++t->totals.canceled;
      t->c_canceled.add(slot_);
      cv_.notify_all();  // a closed queue may now be drained
      if (depth_ == 0 && running_.empty()) idle_cv_.notify_all();
      return job;
    }
  }
  if (error)
    *error = "job " + std::to_string(id) +
             (running_.count(id) ? " already admitted to a worker"
                                 : " is not pending here");
  return std::nullopt;
}

void JobQueue::claim_id(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  next_id_ = std::max(next_id_, id + 1);
}

void JobQueue::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  cv_.notify_all();
}

void JobQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return depth_ == 0 && running_.empty(); });
}

bool JobQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t JobQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

std::size_t JobQueue::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_.size();
}

std::size_t JobQueue::high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

std::uint64_t JobQueue::sum(std::uint64_t TenantStats::*field) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& t : tenants_) total += t->totals.*field;
  return total;
}

std::uint64_t JobQueue::accepted() const {
  return sum(&TenantStats::submitted);
}

std::uint64_t JobQueue::rejected() const {
  return sum(&TenantStats::rejected);
}

std::uint64_t JobQueue::shed() const { return sum(&TenantStats::shed); }

std::vector<std::pair<std::string, TenantStats>> JobQueue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, TenantStats>> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) {
    TenantStats snapshot = t->totals;
    snapshot.queued = t->pending.size();
    out.emplace_back(t->id, snapshot);
  }
  return out;
}

}  // namespace mthfx::engine
