// Screening-engine suite (ctest label: engine): JobQueue admission and
// ordering, ResultStore canonical keys and hit accounting, JobScheduler
// concurrency/bit-identity/fault-domain behavior, campaign parsing and
// expansion, and the machine-readable report schemas.
//
// The concurrency tests double as the TSan target for the engine (see
// scripts/run_tsan.sh): workers, submitters, and the registry race here.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/queue.hpp"
#include "engine/report.hpp"
#include "engine/result_store.hpp"
#include "engine/scheduler.hpp"
#include "md/forces.hpp"
#include "obs/json.hpp"
#include "workload/geometries.hpp"
#include "workload/replicate.hpp"

namespace app = mthfx::app;
namespace chem = mthfx::chem;
namespace engine = mthfx::engine;
namespace md = mthfx::md;
namespace obs = mthfx::obs;
namespace scf = mthfx::scf;
namespace wl = mthfx::workload;

namespace {

engine::Job h2_job(const std::string& name, int priority = 0,
                   int cluster_size = 1) {
  engine::Job job;
  job.name = name;
  job.priority = priority;
  job.input.method = "hf";
  job.input.basis = "sto-3g";
  job.input.eps_schwarz = 1e-8;
  job.input.molecule = wl::cluster_of(wl::h2(), cluster_size, 8.0);
  return job;
}

const obs::Json& member(const obs::Json& j, const std::string& key) {
  const obs::Json* found = j.find(key);
  EXPECT_NE(found, nullptr) << "missing member '" << key << "'";
  static const obs::Json null_json;
  return found ? *found : null_json;
}

}  // namespace

// ---------------------------------------------------------------- queue

TEST(JobQueue, PriorityFirstThenFifoWithinLevel) {
  engine::JobQueue queue({.max_queued = 8});
  for (const auto& [name, prio] :
       {std::pair<const char*, int>{"a", 0}, {"b", 0}, {"hot1", 5},
        {"hot2", 5}, {"c", 0}}) {
    const auto verdict = queue.submit(h2_job(name, prio));
    ASSERT_TRUE(verdict.accepted) << verdict.reason;
  }
  queue.close();
  std::vector<std::string> order;
  while (auto popped = queue.pop()) order.push_back(popped->job.name);
  EXPECT_EQ(order, (std::vector<std::string>{"hot1", "hot2", "a", "b", "c"}));
}

TEST(JobQueue, AssignsIdsInSubmissionOrder) {
  engine::JobQueue queue({.max_queued = 4});
  queue.submit(h2_job("first"));
  queue.submit(h2_job("second", /*priority=*/9));
  queue.close();
  // Ids record submission order even though priority reorders execution.
  auto popped = queue.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->job.name, "second");
  EXPECT_EQ(popped->job.id, 2u);
  popped = queue.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->job.id, 1u);
  EXPECT_GE(popped->wait_seconds, 0.0);
}

TEST(JobQueue, RejectsWhenFullWithReason) {
  engine::JobQueue queue({.max_queued = 2});
  ASSERT_TRUE(queue.submit(h2_job("a")).accepted);
  ASSERT_TRUE(queue.submit(h2_job("b")).accepted);
  const auto verdict = queue.submit(h2_job("c"));
  EXPECT_FALSE(verdict.accepted);
  EXPECT_NE(verdict.reason.find("tenant quota"), std::string::npos)
      << verdict.reason;
  EXPECT_NE(verdict.reason.find("2"), std::string::npos) << verdict.reason;
  EXPECT_EQ(queue.accepted(), 2u);
  EXPECT_EQ(queue.rejected(), 1u);
  // Popping frees capacity: admission recovers.
  (void)queue.pop();
  EXPECT_TRUE(queue.submit(h2_job("c")).accepted);
}

TEST(JobQueue, RejectsJobWithoutGeometry) {
  engine::JobQueue queue({.max_queued = 4});
  engine::Job empty;
  empty.name = "hollow";
  const auto verdict = queue.submit(empty);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_NE(verdict.reason.find("no geometry"), std::string::npos);
  EXPECT_NE(verdict.reason.find("hollow"), std::string::npos);
}

TEST(JobQueue, ClosedQueueDrainsThenSignalsEnd) {
  engine::JobQueue queue({.max_queued = 4});
  ASSERT_TRUE(queue.submit(h2_job("last")).accepted);
  queue.close();
  EXPECT_TRUE(queue.closed());
  const auto verdict = queue.submit(h2_job("late"));
  EXPECT_FALSE(verdict.accepted);
  EXPECT_NE(verdict.reason.find("closed"), std::string::npos);
  EXPECT_TRUE(queue.pop().has_value());   // pending work still drains
  EXPECT_FALSE(queue.pop().has_value());  // then the end marker
}

TEST(JobQueue, CloseWakesBlockedConsumer) {
  engine::JobQueue queue;
  std::optional<engine::PoppedJob> got = engine::PoppedJob{};
  std::thread consumer([&] { got = queue.pop(); });
  queue.close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
}

TEST(JobQueue, TracksDepthAndHighWater) {
  engine::JobQueue queue;
  queue.submit(h2_job("a"));
  queue.submit(h2_job("b"));
  queue.submit(h2_job("c"));
  EXPECT_EQ(queue.depth(), 3u);
  (void)queue.pop();
  (void)queue.pop();
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.high_water(), 3u);
}

// ---------------------------------------------------------------- store

TEST(ResultStore, KeyIgnoresExecutionPolicyFields) {
  app::Input base = h2_job("x").input;
  app::Input tweaked = base;
  tweaked.num_threads = 7;
  tweaked.checkpoint_path = "run.ckpt";
  tweaked.restore_path = "run.ckpt";
  tweaked.fault.fail_rate = 0.25;
  tweaked.fault.seed = 99;
  EXPECT_EQ(engine::input_key(base), engine::input_key(tweaked));
  EXPECT_EQ(engine::canonical_fingerprint(base),
            engine::canonical_fingerprint(tweaked));
}

TEST(ResultStore, KeySensitiveToPhysicsFields) {
  const app::Input base = h2_job("x").input;
  const auto baseline = engine::input_key(base);

  app::Input other = base;
  other.method = "pbe0";
  EXPECT_NE(engine::input_key(other), baseline);

  other = base;
  other.eps_schwarz = 1e-9;
  EXPECT_NE(engine::input_key(other), baseline);

  other = base;  // a 1-ulp coordinate nudge must miss the cache
  auto pos = other.molecule.atom(1).pos;
  pos.z = std::nextafter(pos.z, 2.0 * pos.z + 1.0);
  other.molecule.set_position(1, pos);
  EXPECT_NE(engine::input_key(other), baseline);
}

TEST(ResultStore, KeyCanonicalizesSignedZeroCoordinates) {
  // -0.0 == +0.0 to every consumer of the geometry, but its sign bit
  // differs — raw bit-pattern hashing used to split these into two cache
  // entries, so reflected/axis-aligned geometries re-ran from scratch.
  app::Input pos_zero = h2_job("x").input;
  auto p = pos_zero.molecule.atom(0).pos;
  p.x = 0.0;
  pos_zero.molecule.set_position(0, p);

  app::Input neg_zero = pos_zero;
  p.x = -0.0;
  neg_zero.molecule.set_position(0, p);
  ASSERT_TRUE(std::signbit(neg_zero.molecule.atom(0).pos.x));

  EXPECT_EQ(engine::input_key(pos_zero), engine::input_key(neg_zero));
  EXPECT_EQ(engine::canonical_fingerprint(pos_zero),
            engine::canonical_fingerprint(neg_zero));

  // A cached result stored under +0.0 must be served to the -0.0 twin.
  engine::ResultStore store;
  app::StructuredResult result;
  result.ok = true;
  result.energy = -1.0;
  store.insert(engine::input_key(pos_zero), result);
  EXPECT_TRUE(store.lookup(engine::input_key(neg_zero)).has_value());

  // Canonicalization must not blur a genuinely nonzero coordinate.
  app::Input shifted = pos_zero;
  p.x = 1e-300;
  shifted.molecule.set_position(0, p);
  EXPECT_NE(engine::input_key(shifted), engine::input_key(pos_zero));
}

TEST(ResultStore, GridParticipatesOnlyWhenMethodHasXcGrid) {
  app::Input hf = h2_job("x").input;
  app::Input hf_grid = hf;
  hf_grid.grid_radial = 80;
  // Pure HF never touches the XC grid: same answer, same key.
  EXPECT_EQ(engine::input_key(hf), engine::input_key(hf_grid));

  app::Input dft = hf;
  dft.method = "pbe0";
  app::Input dft_grid = dft;
  dft_grid.grid_radial = 80;
  EXPECT_NE(engine::input_key(dft), engine::input_key(dft_grid));
}

TEST(ResultStore, CountsHitsAndMisses) {
  engine::ResultStore store;
  const auto key = engine::input_key(h2_job("x").input);
  EXPECT_FALSE(store.lookup(key).has_value());
  app::StructuredResult result;
  result.ok = true;
  result.energy = -1.0;
  store.insert(key, result);
  const auto cached = store.lookup(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->energy, -1.0);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.size(), 1u);
  // First insert wins: a duplicate finishing later cannot flip numbers.
  result.energy = -2.0;
  store.insert(key, result);
  EXPECT_EQ(store.lookup(key)->energy, -1.0);
}

// ------------------------------------------------------------ scheduler

TEST(JobScheduler, ConcurrentCampaignBitIdenticalToSequential) {
  std::vector<engine::Job> jobs;
  for (int size = 1; size <= 4; ++size)
    jobs.push_back(h2_job("h2.n" + std::to_string(size), 0, size));
  engine::Job water = h2_job("water");
  water.input.molecule = wl::water();
  jobs.push_back(water);
  // Explicit thread counts, so the comparison crosses them on any host:
  // the sequential runs use 4 threads, the scheduler caps each job at
  // total_threads / concurrency = 2.
  for (auto& job : jobs) job.input.num_threads = 4;

  std::vector<double> sequential;
  for (const auto& job : jobs)
    sequential.push_back(app::run_structured(job.input).energy);

  engine::EngineOptions opts;
  opts.concurrency = 4;
  opts.total_threads = 8;
  opts.cache = false;
  engine::JobScheduler scheduler(opts);
  scheduler.start();
  for (const auto& job : jobs)
    ASSERT_TRUE(scheduler.submit(job).accepted);
  const auto records = scheduler.drain();

  ASSERT_EQ(records.size(), jobs.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].state, engine::JobState::kDone) << records[i].name;
    // Exact double comparison on purpose: the acceptance criterion is
    // bit-identity with the single-shot driver, not closeness.
    EXPECT_EQ(records[i].result.energy, sequential[i]) << records[i].name;
  }
  EXPECT_EQ(scheduler.registry().counter_total("engine.jobs_completed"),
            jobs.size());
}

TEST(JobScheduler, DuplicateJobsServedFromCache) {
  engine::EngineOptions opts;
  opts.concurrency = 1;  // deterministic order: the duplicate runs second
  engine::JobScheduler scheduler(opts);
  ASSERT_TRUE(scheduler.submit(h2_job("orig")).accepted);
  ASSERT_TRUE(scheduler.submit(h2_job("dup")).accepted);
  ASSERT_TRUE(scheduler.submit(h2_job("other", 0, 2)).accepted);
  const auto records = scheduler.drain();

  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(records[0].cache_hit);
  EXPECT_TRUE(records[1].cache_hit);
  EXPECT_FALSE(records[2].cache_hit);
  EXPECT_EQ(records[1].result.energy, records[0].result.energy);
  EXPECT_EQ(scheduler.store().hits(), 1u);
  EXPECT_EQ(scheduler.registry().counter_total("engine.cache_hits"), 1u);
  EXPECT_GE(scheduler.registry().counter_total("engine.cache_misses"), 2u);
}

TEST(JobScheduler, CacheOffExecutesEveryJob) {
  engine::EngineOptions opts;
  opts.concurrency = 1;
  opts.cache = false;
  engine::JobScheduler scheduler(opts);
  scheduler.submit(h2_job("a"));
  scheduler.submit(h2_job("a-again"));
  const auto records = scheduler.drain();
  EXPECT_FALSE(records[0].cache_hit);
  EXPECT_FALSE(records[1].cache_hit);
  EXPECT_EQ(scheduler.store().hits(), 0u);
}

TEST(JobScheduler, SharesThreadBudgetAcrossConcurrentJobs) {
  engine::EngineOptions opts;
  opts.concurrency = 4;
  opts.total_threads = 8;
  engine::JobScheduler scheduler(opts);
  EXPECT_EQ(scheduler.total_threads(), 8u);
  EXPECT_EQ(scheduler.per_job_threads(), 2u);

  engine::Job wide = h2_job("wide");    // asks for everything -> capped
  engine::Job narrow = h2_job("narrow");
  narrow.input.num_threads = 1;         // asks below the cap -> honored
  scheduler.submit(wide);
  scheduler.submit(narrow);
  const auto records = scheduler.drain();
  EXPECT_EQ(records[0].threads, 2u);
  EXPECT_EQ(records[1].threads, 1u);
}

TEST(JobScheduler, RejectedJobsStillAppearInRecords) {
  engine::EngineOptions opts;
  opts.concurrency = 2;
  opts.tenant_defaults.max_queued = 1;
  engine::JobScheduler scheduler(opts);  // not started: queue stays full
  ASSERT_TRUE(scheduler.submit(h2_job("kept")).accepted);
  EXPECT_FALSE(scheduler.submit(h2_job("shed1")).accepted);
  EXPECT_FALSE(scheduler.submit(h2_job("shed2")).accepted);
  const auto records = scheduler.drain();

  ASSERT_EQ(records.size(), 3u);
  // Rejected jobs never get an id and sort first, in submission order.
  EXPECT_EQ(records[0].name, "shed1");
  EXPECT_EQ(records[0].state, engine::JobState::kRejected);
  EXPECT_NE(records[0].reject_reason.find("tenant quota"), std::string::npos);
  EXPECT_EQ(records[1].name, "shed2");
  EXPECT_EQ(records[2].name, "kept");
  EXPECT_EQ(records[2].state, engine::JobState::kDone);
  EXPECT_EQ(scheduler.registry().counter_total("engine.jobs_rejected"), 2u);
}

TEST(JobScheduler, FaultedJobRetriesAndRecovers) {
  // Seed 9 deterministically fails the first attempt and passes the
  // second, which the scheduler re-seeds to 10. The injector draws from
  // hash(seed, site, attempt) with site = (build, task index), so this is
  // stable across machines and thread counts but tied to H2's three row
  // tasks: seed 9 fails a task of build 0, seed 10 fails nothing before
  // build 11, and the solve converges in 2 iterations.
  engine::Job job = h2_job("flaky");
  job.input.fault.fail_rate = 0.05;
  job.input.fault.max_retries = 0;  // task failures escape to the engine
  job.input.fault.seed = 9;

  engine::EngineOptions opts;
  opts.concurrency = 1;
  opts.max_job_retries = 3;
  opts.cache = false;
  engine::JobScheduler scheduler(opts);
  scheduler.submit(job);
  const auto records = scheduler.drain();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].state, engine::JobState::kDone);
  EXPECT_EQ(records[0].attempts, 2u);
  EXPECT_EQ(scheduler.registry().counter_total("engine.job_retries"), 1u);
  // Recovered faults cannot change the answer.
  EXPECT_EQ(records[0].result.energy,
            app::run_structured(h2_job("clean").input).energy);
}

TEST(JobScheduler, PermanentFailureIsIsolatedToItsJob) {
  engine::Job doomed = h2_job("doomed");
  doomed.input.fault.fail_rate = 1.0;  // every task, every attempt
  doomed.input.fault.max_retries = 0;

  engine::EngineOptions opts;
  opts.concurrency = 2;
  opts.max_job_retries = 2;
  opts.cache = false;
  engine::JobScheduler scheduler(opts);
  scheduler.submit(doomed);
  scheduler.submit(h2_job("fine1"));
  scheduler.submit(h2_job("fine2", 0, 2));
  const auto records = scheduler.drain();

  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].state, engine::JobState::kFailed);
  EXPECT_EQ(records[0].attempts, 3u);  // 1 + max_job_retries
  EXPECT_FALSE(records[0].error.empty());
  EXPECT_EQ(records[1].state, engine::JobState::kDone);
  EXPECT_EQ(records[2].state, engine::JobState::kDone);
  EXPECT_EQ(scheduler.registry().counter_total("engine.jobs_failed"), 1u);
  EXPECT_EQ(scheduler.registry().counter_total("engine.jobs_completed"), 2u);
}

// ------------------------------------------------------------- campaign

namespace {

const char* kCampaignText = R"(
# engine block
concurrency 3
queue_capacity 64
total_threads 8
job_retries 2
cache off

sweep
  molecules water h2
  sizes 1 2
  bases sto-3g
  methods hf pbe0
  spacing 9.0
  eps_schwarz 1e-8
  repeat 2
end

sweep
  molecules lio2-
  methods hf
  priority 10
  fault_spec fail=0.25,seed=7
end
)";

}  // namespace

TEST(Campaign, ParsesEngineSettings) {
  const auto spec = engine::parse_campaign(kCampaignText);
  EXPECT_EQ(spec.engine.concurrency, 3u);
  EXPECT_EQ(spec.engine.tenant_defaults.max_queued, 64u);
  EXPECT_EQ(spec.engine.total_threads, 8u);
  EXPECT_EQ(spec.engine.max_job_retries, 2u);
  EXPECT_FALSE(spec.engine.cache);
  ASSERT_EQ(spec.sweeps.size(), 2u);
  EXPECT_EQ(spec.sweeps[1].priority, 10);
  EXPECT_DOUBLE_EQ(spec.sweeps[1].fault.fail_rate, 0.25);
  EXPECT_EQ(spec.sweeps[1].fault.seed, 7u);
}

TEST(Campaign, ExpandsCrossProductTimesRepeat) {
  const auto jobs = engine::parse_campaign(kCampaignText).expand();
  // Sweep 1: 2 molecules x 2 sizes x 1 basis x 2 methods x repeat 2 = 16;
  // sweep 2: a single lio2- job.
  ASSERT_EQ(jobs.size(), 17u);
  EXPECT_EQ(jobs[0].name, "water.n1.sto-3g.hf#r1");
  EXPECT_EQ(jobs[1].name, "water.n1.sto-3g.pbe0#r1");
  EXPECT_EQ(jobs[8].name, "water.n1.sto-3g.hf#r2");  // repeats outermost
  EXPECT_EQ(jobs[16].name, "lio2-.n1.sto-3g.hf");
  EXPECT_EQ(jobs[16].priority, 10);
  // Cluster chemistry: n2 water = 6 atoms; the anion carries its charge.
  EXPECT_EQ(jobs[2].input.molecule.size(), 6u);
  EXPECT_EQ(jobs[16].input.charge, -1);
  EXPECT_EQ(jobs[16].input.multiplicity, 1);  // 20 electrons: singlet
}

TEST(Campaign, RepeatRunsShareTheCacheKey) {
  const auto jobs = engine::parse_campaign(kCampaignText).expand();
  EXPECT_EQ(engine::input_key(jobs[0].input),
            engine::input_key(jobs[8].input));
}

TEST(Campaign, RejectsDuplicateKeywordsPerScope) {
  try {
    engine::parse_campaign("concurrency 2\nconcurrency 4\n");
    FAIL() << "expected duplicate-keyword rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("concurrency"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      engine::parse_campaign("sweep\n  sizes 1\n  sizes 2\nend\n"),
      std::runtime_error);
  // Same keyword in two different sweeps is fine.
  EXPECT_NO_THROW(engine::parse_campaign(
      "sweep\n  sizes 1\nend\nsweep\n  sizes 2\nend\n"));
}

TEST(Campaign, RejectsMalformedFiles) {
  EXPECT_THROW(engine::parse_campaign("sweep\n  molecules water\n"),
               std::runtime_error);  // unterminated sweep
  EXPECT_THROW(engine::parse_campaign("warp_speed 9\n"),
               std::runtime_error);  // unknown keyword
  EXPECT_THROW(engine::parse_campaign("cache sometimes\n"),
               std::runtime_error);  // cache wants on|off
  EXPECT_THROW(engine::parse_campaign("concurrency 2\n"),
               std::runtime_error);  // engine settings alone: no sweep
  EXPECT_THROW(engine::parse_campaign("sweep\n  sizes 0\nend\n"),
               std::runtime_error);  // sizes must be >= 1
}

TEST(Campaign, UnknownMoleculeFailsAtExpansion) {
  const auto spec =
      engine::parse_campaign("sweep\n  molecules benzene\nend\n");
  EXPECT_THROW(spec.expand(), std::invalid_argument);
}

// -------------------------------------------------------------- reports

TEST(Report, ResultRecordRoundTripsThroughJson) {
  const engine::Job job = h2_job("probe");
  const auto result = app::run_structured(job.input);
  const auto record = engine::result_record(job.input, result);
  const auto parsed = obs::Json::parse(record.dump(2));

  EXPECT_EQ(member(parsed, "schema").as_string(), "mthfx.result.v1");
  const auto& input = member(parsed, "input");
  EXPECT_EQ(member(input, "method").as_string(), "hf");
  EXPECT_EQ(member(input, "num_atoms").as_int(), 2);
  EXPECT_FALSE(member(input, "fingerprint").as_string().empty());
  const auto& res = member(parsed, "result");
  EXPECT_TRUE(member(res, "converged").as_bool());
  // obs::Json doubles round-trip bit-exactly.
  EXPECT_EQ(member(res, "energy").as_double(), result.energy);
}

TEST(Report, CampaignReportCarriesQueueCacheAndJobAccounting) {
  engine::EngineOptions opts;
  opts.concurrency = 2;
  engine::JobScheduler scheduler(opts);
  scheduler.submit(h2_job("a"));
  scheduler.submit(h2_job("a-dup"));
  const auto records = scheduler.drain();
  const auto report = engine::campaign_report(scheduler, records);
  const auto parsed = obs::Json::parse(report.dump());

  EXPECT_EQ(member(parsed, "schema").as_string(), "mthfx.campaign.v1");
  EXPECT_EQ(member(member(parsed, "engine"), "concurrency").as_int(), 2);
  EXPECT_EQ(member(member(parsed, "queue"), "accepted").as_int(), 2);
  EXPECT_EQ(member(parsed, "jobs_done").as_int(), 2);
  EXPECT_EQ(member(parsed, "jobs").size(), 2u);
  const auto& metrics = member(parsed, "metrics");
  EXPECT_TRUE(metrics.is_object());
}

TEST(Report, RejectedJobRecordKeepsOnlyAdmissionFields) {
  engine::JobRecord record;
  record.name = "shed";
  record.state = engine::JobState::kRejected;
  record.reject_reason = "tenant quota: '' queued 1/1 (in-flight 0)";
  const auto parsed = obs::Json::parse(engine::job_record(record).dump());
  EXPECT_EQ(member(parsed, "state").as_string(), "rejected");
  EXPECT_NE(member(parsed, "reject_reason").as_string().find("tenant quota"),
            std::string::npos);
  EXPECT_EQ(parsed.find("result"), nullptr);
}

// ----------------------------------------------------- fair-share tenancy

namespace {

engine::Job tenant_job(const std::string& tenant, const std::string& name,
                       int priority = 0) {
  engine::Job job = h2_job(name, priority);
  job.tenant = tenant;
  return job;
}

engine::TenantStats tenant_stats(const engine::JobQueue& queue,
                                 const std::string& id) {
  for (const auto& [tenant, stats] : queue.stats())
    if (tenant == id) return stats;
  ADD_FAILURE() << "no stats for tenant '" << id << "'";
  return {};
}

}  // namespace

// The reject and shed formats below are part of the service protocol
// surface (clients parse them out of error responses), so they are
// pinned exactly — see docs/engine.md (Service).
TEST(JobQueue, RejectReasonFormatIsPinned) {
  engine::JobQueue queue({.max_queued = 2});
  ASSERT_TRUE(queue.submit(h2_job("a")).accepted);
  ASSERT_TRUE(queue.submit(h2_job("b")).accepted);
  EXPECT_EQ(queue.submit(h2_job("c")).reason,
            "tenant quota: '' queued 2/2 (in-flight 0)");
}

TEST(FairShare, TenantQuotaRejectReasonFormatIsPinned) {
  engine::JobQueue queue;
  queue.configure("acme", {.max_queued = 2});
  ASSERT_TRUE(queue.submit(tenant_job("acme", "a")).accepted);
  ASSERT_TRUE(queue.pop().has_value());  // a is in flight
  ASSERT_TRUE(queue.submit(tenant_job("acme", "b")).accepted);  // queued 1/2
  ASSERT_TRUE(queue.submit(tenant_job("acme", "c")).accepted);  // queued 2/2
  const auto verdict = queue.submit(tenant_job("acme", "d"));
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.reason, "tenant quota: 'acme' queued 2/2 (in-flight 1)");
  // With an in-flight cap the reason carries it as a /cap suffix.
  queue.configure("beta", {.max_queued = 1, .max_in_flight = 1});
  ASSERT_TRUE(queue.submit(tenant_job("beta", "x")).accepted);
  ASSERT_TRUE(queue.pop().has_value());  // DRR: beta is the one eligible
  ASSERT_TRUE(queue.submit(tenant_job("beta", "y")).accepted);
  EXPECT_EQ(queue.submit(tenant_job("beta", "z")).reason,
            "tenant quota: 'beta' queued 1/1 (in-flight 1/1)");
}

TEST(FairShare, DeficitRoundRobinHonoursWeights) {
  engine::JobQueue queue;
  queue.configure("heavy", {.weight = 2.0});
  queue.configure("light", {.weight = 1.0});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        queue.submit(tenant_job("heavy", "h" + std::to_string(i))).accepted);
    ASSERT_TRUE(
        queue.submit(tenant_job("light", "l" + std::to_string(i))).accepted);
  }
  EXPECT_EQ(queue.depth(), 20u);
  // Six dispatches split 2:1 by weight: heavy 4, light 2.
  std::map<std::string, int> dispatched;
  for (int i = 0; i < 6; ++i) {
    const auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    ++dispatched[popped->job.tenant];
  }
  EXPECT_EQ(dispatched["heavy"], 4);
  EXPECT_EQ(dispatched["light"], 2);
  EXPECT_EQ(tenant_stats(queue, "heavy").admitted, 4u);
  EXPECT_EQ(tenant_stats(queue, "light").admitted, 2u);
  EXPECT_EQ(queue.depth(), 14u);
}

TEST(FairShare, InFlightCapHoldsJobsBackUntilCompletions) {
  engine::JobQueue queue;
  queue.configure("capped", {.max_in_flight = 2});
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(
        queue.submit(tenant_job("capped", "j" + std::to_string(i))).accepted);
  const auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(queue.pop().has_value());
  EXPECT_EQ(tenant_stats(queue, "capped").in_flight, 2u);
  EXPECT_EQ(queue.depth(), 3u);
  // A third pop blocks at the cap until a completion is reported.
  std::atomic<bool> dispatched{false};
  std::thread worker([&] {
    const auto third = queue.pop();
    dispatched = third.has_value();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(dispatched.load());
  EXPECT_EQ(tenant_stats(queue, "capped").admitted, 2u);
  queue.complete(first->job.id, engine::JobState::kDone);
  worker.join();
  EXPECT_TRUE(dispatched.load());
  EXPECT_EQ(tenant_stats(queue, "capped").admitted, 3u);
  EXPECT_EQ(tenant_stats(queue, "capped").completed, 1u);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(FairShare, ConfigureRejectsNonsenseOptions) {
  engine::JobQueue queue;
  EXPECT_THROW(queue.configure("t", {.weight = 0.0}), std::invalid_argument);
  EXPECT_THROW(queue.configure("t", {.max_queued = 0}),
               std::invalid_argument);
  EXPECT_THROW(engine::JobQueue({.max_queued = 0}), std::invalid_argument);
}

TEST(FairShare, CancelRemovesPendingJobAndRecordsIt) {
  engine::EngineOptions opts;
  opts.concurrency = 1;
  engine::JobScheduler scheduler(opts);  // not started: jobs stay pending
  ASSERT_TRUE(scheduler.submit(tenant_job("t", "runs")).accepted);
  const auto pending = scheduler.submit(tenant_job("t", "waits"));
  ASSERT_TRUE(pending.accepted);
  std::string error;
  EXPECT_FALSE(scheduler.cancel(999, "", &error));
  EXPECT_EQ(error, "job 999 is not pending here");
  EXPECT_TRUE(scheduler.cancel(pending.id, "changed my mind", &error));
  EXPECT_EQ(scheduler.queue().depth(), 1u);
  EXPECT_EQ(tenant_stats(scheduler.queue(), "t").canceled, 1u);
  EXPECT_EQ(scheduler.registry().counter_total("engine.tenant.t.canceled"),
            1u);
  const auto records = scheduler.drain();
  bool saw_cancel = false;
  for (const auto& r : records)
    if (r.state == engine::JobState::kCanceled) {
      saw_cancel = true;
      EXPECT_EQ(r.id, pending.id);
      EXPECT_EQ(r.error, "changed my mind");
    }
  EXPECT_TRUE(saw_cancel);
}

TEST(FairShare, ShedNeverCrossesTenants) {
  engine::EngineOptions opts;
  opts.concurrency = 1;
  opts.tenants = {{"A", {.max_queued = 2}}, {"B", {.max_queued = 2}}};
  engine::JobScheduler scheduler(opts);  // not started: backlogs stay full
  // B's pending work is the lowest priority anywhere in the queue.
  ASSERT_TRUE(scheduler.submit(tenant_job("B", "b1", 0)).accepted);
  ASSERT_TRUE(scheduler.submit(tenant_job("B", "b2", 0)).accepted);
  ASSERT_TRUE(scheduler.submit(tenant_job("A", "a1", 5)).accepted);
  ASSERT_TRUE(scheduler.submit(tenant_job("A", "a2", 5)).accepted);

  // A strictly-higher-priority A arrival displaces A's own youngest
  // lowest-priority job, never B's.
  const engine::Admission hot = scheduler.submit(tenant_job("A", "hot", 9));
  ASSERT_TRUE(hot.accepted) << hot.reason;
  ASSERT_TRUE(hot.displaced.has_value());
  EXPECT_EQ(hot.displaced->name, "a2");
  EXPECT_EQ(tenant_stats(scheduler.queue(), "B").queued, 2u);
  EXPECT_EQ(tenant_stats(scheduler.queue(), "B").shed, 0u);
  EXPECT_EQ(tenant_stats(scheduler.queue(), "A").queued, 2u);

  // An arrival equal to A's lowest pending priority is rejected.
  const engine::Admission equal = scheduler.submit(tenant_job("A", "a3", 5));
  EXPECT_FALSE(equal.accepted);
  EXPECT_EQ(equal.reason, "tenant quota: 'A' queued 2/2 (in-flight 0)");

  const obs::Registry& registry = scheduler.registry();
  EXPECT_EQ(registry.counter_total("engine.jobs_shed"), 1u);
  EXPECT_EQ(registry.counter_total("engine.tenant.A.shed"), 1u);
  EXPECT_EQ(registry.counter_total("engine.tenant.B.shed"), 0u);
  EXPECT_EQ(registry.counter_total("engine.jobs_rejected"), 1u);
  EXPECT_EQ(registry.counter_total("engine.tenant.A.rejected"), 1u);

  const auto records = scheduler.drain();
  const auto shed = std::find_if(records.begin(), records.end(),
                                 [](const auto& r) { return r.name == "a2"; });
  ASSERT_NE(shed, records.end());
  EXPECT_EQ(shed->state, engine::JobState::kRejected);
  EXPECT_EQ(shed->reject_reason,
            "shed: tenant 'A' backlog full, displaced by higher-priority "
            "submission (id " + std::to_string(hot.id) + ")");
}

// ------------------------------------------------------- observability

namespace {

/// Metric names in the first column of docs/observability.md's tables.
std::set<std::string> documented_metric_names() {
  std::ifstream doc(MTHFX_DOCS_DIR "/observability.md");
  EXPECT_TRUE(doc.good()) << "cannot read docs/observability.md";
  std::set<std::string> names;
  std::string line;
  while (std::getline(doc, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    if (end != std::string::npos) names.insert(line.substr(3, end - 3));
  }
  return names;
}

/// Registered `prefix`* names of `registry` that the doc tables lack;
/// per-tenant names match the `engine.tenant.<id>.*` rows.
std::vector<std::string> undocumented_metrics(
    const obs::Registry& registry, const std::set<std::string>& documented,
    const std::string& prefix) {
  std::vector<std::string> missing;
  const obs::Json dump = registry.to_json();
  for (const char* kind : {"counters", "timers"}) {
    for (const auto& [name, value] : member(dump, kind).members()) {
      if (name.rfind(prefix, 0) != 0) continue;
      std::string row = name;
      const std::string tenant_prefix = "engine.tenant.";
      if (row.rfind(tenant_prefix, 0) == 0)
        row = tenant_prefix + "<id>" + row.substr(row.rfind('.'));
      if (!documented.count(row)) missing.push_back(name);
    }
  }
  return missing;
}

}  // namespace

TEST(Observability, EngineMetricNamesAreDocumented) {
  const std::set<std::string> documented = documented_metric_names();

  engine::EngineOptions campaign_opts;
  campaign_opts.concurrency = 1;
  engine::JobScheduler campaign(campaign_opts);
  ASSERT_TRUE(campaign.submit(h2_job("one")).accepted);
  campaign.drain();

  engine::EngineOptions serve_opts;
  serve_opts.concurrency = 1;
  serve_opts.tenants = {{"acme", {}}, {"beta", {.weight = 2.0}}};
  engine::JobScheduler service(serve_opts);
  ASSERT_TRUE(service.submit(tenant_job("acme", "a")).accepted);
  ASSERT_TRUE(service.submit(tenant_job("beta", "b")).accepted);
  service.drain();

  for (const engine::JobScheduler* scheduler : {&campaign, &service}) {
    const auto missing =
        undocumented_metrics(scheduler->registry(), documented, "engine.");
    EXPECT_TRUE(missing.empty())
        << "registered but not in docs/observability.md: "
        << ::testing::PrintToString(missing);
  }
  // The campaign's one tenant ("") registers no per-tenant names.
  EXPECT_EQ(campaign.registry().to_json().dump().find("engine.tenant."),
            std::string::npos);

  // The BOMD surface's acceleration counters: a solve, a cache hit, and a
  // warm-started solve on a rebound builder at a moved geometry.
  scf::KsOptions ks;
  ks.functional = "hf";
  ks.scf.hfx.num_threads = 1;
  const md::ScfPotential surface("sto-3g", ks);
  chem::Molecule mol = wl::h2();
  surface.energy(mol);
  surface.forces(mol);
  chem::Vec3 moved = mol.atom(1).pos;
  moved[2] += 0.01;
  mol.set_position(1, moved);
  surface.forces(mol);
  const obs::Registry& md_registry = surface.metrics();
  EXPECT_EQ(md_registry.counter_total("md.surface_cache_hits"), 1u);
  EXPECT_EQ(md_registry.counter_total("md.warm_starts"), 1u);
  const auto missing = undocumented_metrics(md_registry, documented, "md.");
  EXPECT_TRUE(missing.empty())
      << "registered but not in docs/observability.md: "
      << ::testing::PrintToString(missing);
  for (const char* name : {"md.scf_solves", "md.surface_cache_hits",
                           "md.warm_starts", "md.scf_iterations",
                           "md.rebind_reused_pairs"})
    EXPECT_TRUE(documented.count(name)) << name;
}
