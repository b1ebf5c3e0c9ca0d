// Durability suite (ctest label: durability): write-ahead journal
// round-trips and tolerant replay, disk-backed ResultStore persistence /
// corruption-as-miss / LRU eviction, seeded backoff determinism, deadline
// watchdog cancellation, load shedding, and the headline crash test —
// SIGKILL a campaign mid-run, resume it, and demand bit-identical physics
// with zero duplicated SCF work.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/journal.hpp"
#include "engine/queue.hpp"
#include "engine/report.hpp"
#include "engine/result_store.hpp"
#include "engine/scheduler.hpp"
#include "fault/atomic_file.hpp"
#include "obs/json.hpp"
#include "workload/geometries.hpp"
#include "workload/replicate.hpp"

namespace app = mthfx::app;
namespace engine = mthfx::engine;
namespace fault = mthfx::fault;
namespace obs = mthfx::obs;
namespace wl = mthfx::workload;

namespace {

std::string make_temp_dir() {
  std::string tmpl = "/tmp/mthfx_durability_XXXXXX";
  char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "/tmp";
}

engine::Job h2_job(const std::string& name, const std::string& method = "hf",
                   int priority = 0) {
  engine::Job job;
  job.name = name;
  job.priority = priority;
  job.input.method = method;
  job.input.basis = "sto-3g";
  job.input.eps_schwarz = 1e-8;
  job.input.molecule = wl::h2();
  return job;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

app::StructuredResult fake_result(double energy) {
  app::StructuredResult result;
  result.ok = true;
  result.converged = true;
  result.reference = "rks";
  result.energy = energy;
  result.scf_iterations = 7;
  result.xc_energy = -0.25 * energy;
  result.report = "fake report for " + std::to_string(energy);
  return result;
}

}  // namespace

// -------------------------------------------------------------- backoff

TEST(Backoff, DeterministicUnderFixedSeed) {
  engine::BackoffOptions options;
  options.seed = 42;
  for (std::uint64_t job = 1; job <= 3; ++job)
    for (std::size_t attempt = 1; attempt <= 4; ++attempt)
      EXPECT_EQ(engine::backoff_delay_ms(options, job, attempt),
                engine::backoff_delay_ms(options, job, attempt));
  // Different seeds give different jitter (with overwhelming probability).
  engine::BackoffOptions other = options;
  other.seed = 43;
  EXPECT_NE(engine::backoff_delay_ms(options, 1, 1),
            engine::backoff_delay_ms(other, 1, 1));
}

TEST(Backoff, ExponentialGrowthWithCapAndJitterRange) {
  engine::BackoffOptions options;
  options.base_ms = 10.0;
  options.max_ms = 80.0;
  options.jitter = 0.5;
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    const double full =
        std::min(options.base_ms * std::pow(2.0, double(attempt - 1)),
                 options.max_ms);
    const double delay = engine::backoff_delay_ms(options, 7, attempt);
    EXPECT_GT(delay, full * (1.0 - options.jitter) - 1e-12);
    EXPECT_LE(delay, full);
  }
  // Zero jitter is exactly the exponential schedule.
  options.jitter = 0.0;
  EXPECT_DOUBLE_EQ(engine::backoff_delay_ms(options, 7, 1), 10.0);
  EXPECT_DOUBLE_EQ(engine::backoff_delay_ms(options, 7, 3), 40.0);
  EXPECT_DOUBLE_EQ(engine::backoff_delay_ms(options, 7, 5), 80.0);
}

// -------------------------------------------------------------- journal

TEST(Journal, InputRoundTripsBitExact) {
  app::Input input = h2_job("x", "pbe0").input;
  input.eps_schwarz = 0.1 + 0.2;  // not representable as a short decimal
  input.fault.fail_rate = 0.015625;
  input.fault.hang_rate = 1e-3;
  input.fault.seed = 0xDEADBEEFULL;
  input.checkpoint_path = "ck.json";

  const app::Input back =
      engine::input_from_json(engine::input_to_json(input));
  EXPECT_EQ(engine::canonical_fingerprint(back),
            engine::canonical_fingerprint(input));
  EXPECT_EQ(back.method, "pbe0");
  EXPECT_EQ(back.checkpoint_path, "ck.json");
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.eps_schwarz),
            std::bit_cast<std::uint64_t>(input.eps_schwarz));
  EXPECT_EQ(back.fault.seed, input.fault.seed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.fault.hang_rate),
            std::bit_cast<std::uint64_t>(input.fault.hang_rate));
}

TEST(Journal, JobRecordRoundTripsBitExact) {
  engine::JobRecord record;
  record.id = 17;
  record.name = "water.n1.sto-3g.pbe0";
  record.priority = 3;
  record.state = engine::JobState::kDone;
  record.attempts = 2;
  record.deadline_hits = 1;
  record.backoff_ms = 12.375;
  record.degraded = true;
  record.degrade_note = "grid 40x38 -> 20x26";
  record.input = h2_job("x", "pbe0").input;
  record.result = fake_result(-75.24587903265977);
  record.result.gradient.push_back({0.1, -0.2, 0.3});

  const engine::JobRecord back =
      engine::job_record_from_json(engine::job_record_to_json(record));
  EXPECT_EQ(back.id, 17u);
  EXPECT_EQ(back.state, engine::JobState::kDone);
  EXPECT_EQ(back.attempts, 2u);
  EXPECT_EQ(back.deadline_hits, 1u);
  EXPECT_TRUE(back.degraded);
  EXPECT_EQ(back.degrade_note, record.degrade_note);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.result.energy),
            std::bit_cast<std::uint64_t>(record.result.energy));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.backoff_ms),
            std::bit_cast<std::uint64_t>(record.backoff_ms));
  ASSERT_EQ(back.result.gradient.size(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.result.gradient[0].y),
            std::bit_cast<std::uint64_t>(-0.2));
  EXPECT_EQ(back.result.report, record.result.report);
}

TEST(Journal, ReplayReconstructsLifecycle) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/run.wal";
  {
    engine::Journal journal;
    journal.open(path);
    engine::Job job = h2_job("a");
    job.id = 1;
    journal.record_submitted(job);
    engine::Job other = h2_job("b", "pbe0");
    other.id = 2;
    journal.record_submitted(other);
    journal.record_started(1, 1);
    journal.record_attempt_failed(1, 1, "deadline", "blew 0.05 s", 12.5);
    journal.record_started(1, 2);
    engine::JobRecord record;
    record.id = 1;
    record.name = "a";
    record.state = engine::JobState::kDone;
    record.attempts = 2;
    record.input = h2_job("a").input;
    record.result = fake_result(-1.117);
    journal.record_committed(record);
    EXPECT_EQ(journal.appended(), 6u);
  }
  const engine::JournalReplay replay = engine::Journal::replay(path);
  EXPECT_EQ(replay.records, 6u);
  EXPECT_EQ(replay.skipped, 0u);
  ASSERT_EQ(replay.jobs.size(), 2u);
  const engine::ReplayedJob* first = replay.find(1);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->committed);
  EXPECT_EQ(first->attempts_started, 2u);
  EXPECT_EQ(first->attempts_failed, 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(first->record.result.energy),
            std::bit_cast<std::uint64_t>(-1.117));
  const engine::ReplayedJob* second = replay.find(2);
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(second->committed);
  EXPECT_EQ(second->job.input.method, "pbe0");
}

TEST(Journal, ShutdownRecordMarksCleanReplayWithReason) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/run.wal";
  {
    engine::Journal journal;
    journal.open(path);
    engine::Job job = h2_job("a");
    job.id = 1;
    journal.record_submitted(job);
    journal.record_shutdown("signal 15");
  }
  const engine::JournalReplay replay = engine::Journal::replay(path);
  EXPECT_TRUE(replay.clean_shutdown);
  EXPECT_EQ(replay.shutdown_reason, "signal 15");
  // A journal that simply stops (SIGKILL) is not a clean shutdown.
  const std::string crashed = dir + "/crashed.wal";
  {
    engine::Journal journal;
    journal.open(crashed);
    engine::Job job = h2_job("a");
    job.id = 1;
    journal.record_submitted(job);
  }
  EXPECT_FALSE(engine::Journal::replay(crashed).clean_shutdown);
}

TEST(Journal, MaxIdSpansSubmittedAndCommittedRecords) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/run.wal";
  {
    engine::Journal journal;
    journal.open(path);
    engine::Job job = h2_job("a");
    job.id = 3;
    journal.record_submitted(job);
    engine::JobRecord record;
    record.id = 9;
    record.name = "b";
    record.state = engine::JobState::kDone;
    record.input = h2_job("b").input;
    record.result = fake_result(-1.0);
    journal.record_committed(record);
  }
  // The service resumes id assignment above everything in the journal,
  // whether the high id came from a pending or a committed job.
  EXPECT_EQ(engine::Journal::replay(path).max_id(), 9u);
  EXPECT_EQ(engine::JournalReplay{}.max_id(), 0u);
}

TEST(Journal, TenantSurvivesTheRoundTrip) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/run.wal";
  {
    engine::Journal journal;
    journal.open(path);
    engine::Job job = h2_job("a");
    job.id = 1;
    job.tenant = "acme";
    journal.record_submitted(job);
    engine::JobRecord record;
    record.id = 2;
    record.name = "b";
    record.tenant = "beta";
    record.state = engine::JobState::kDone;
    record.input = h2_job("b").input;
    record.result = fake_result(-1.0);
    journal.record_committed(record);
  }
  const engine::JournalReplay replay = engine::Journal::replay(path);
  ASSERT_NE(replay.find(1), nullptr);
  EXPECT_EQ(replay.find(1)->job.tenant, "acme");
  ASSERT_NE(replay.find(2), nullptr);
  EXPECT_EQ(replay.find(2)->record.tenant, "beta");
}

TEST(Journal, ReplayMissingFileIsEmptyCampaign) {
  const engine::JournalReplay replay =
      engine::Journal::replay("/tmp/mthfx_no_such_journal.wal");
  EXPECT_TRUE(replay.jobs.empty());
  EXPECT_EQ(replay.records, 0u);
  EXPECT_TRUE(replay.warnings.empty());
}

TEST(Journal, ReplayToleratesTruncatedTail) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/run.wal";
  {
    engine::Journal journal;
    journal.open(path);
    engine::Job a = h2_job("a");
    a.id = 1;
    journal.record_submitted(a);
    engine::Job b = h2_job("b");
    b.id = 2;
    journal.record_submitted(b);
  }
  // Tear the last record mid-payload, as a crash mid-append would.
  std::string contents = read_file(path);
  contents.resize(contents.size() - 40);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  const engine::JournalReplay replay = engine::Journal::replay(path);
  EXPECT_EQ(replay.skipped, 1u);
  ASSERT_EQ(replay.warnings.size(), 1u);
  EXPECT_NE(replay.warnings[0].find("checksum"), std::string::npos);
  ASSERT_EQ(replay.jobs.size(), 1u);
  EXPECT_EQ(replay.jobs[0].job.id, 1u);
}

TEST(Journal, ReplaySkipsCorruptRecordAndKeepsTheRest) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/run.wal";
  {
    engine::Journal journal;
    journal.open(path);
    for (std::uint64_t id = 1; id <= 3; ++id) {
      engine::Job job = h2_job("j" + std::to_string(id));
      job.id = id;
      journal.record_submitted(job);
    }
  }
  // Flip a payload byte inside the *middle* record.
  std::string contents = read_file(path);
  const std::size_t second_line = contents.find('\n') + 1;
  const std::size_t flip = contents.find("\"name\"", second_line) + 8;
  contents[flip] = contents[flip] == 'Z' ? 'Y' : 'Z';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  const engine::JournalReplay replay = engine::Journal::replay(path);
  EXPECT_EQ(replay.skipped, 1u);
  EXPECT_EQ(replay.records, 2u);
  ASSERT_EQ(replay.jobs.size(), 2u);
  EXPECT_NE(replay.find(1), nullptr);
  EXPECT_EQ(replay.find(2), nullptr);  // the corrupt one
  EXPECT_NE(replay.find(3), nullptr);
}

TEST(Journal, ReplayAcceptsCommittedBeforeSubmitted) {
  // Workers journal concurrently with the submitter, so commit records
  // can precede their submitted record; replay must not care.
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/run.wal";
  {
    engine::Journal journal;
    journal.open(path);
    engine::JobRecord record;
    record.id = 5;
    record.name = "early";
    record.state = engine::JobState::kDone;
    record.attempts = 1;
    record.input = h2_job("early").input;
    record.result = fake_result(-1.0);
    journal.record_committed(record);
    engine::Job job = h2_job("early");
    job.id = 5;
    journal.record_submitted(job);
  }
  const engine::JournalReplay replay = engine::Journal::replay(path);
  EXPECT_EQ(replay.skipped, 0u);
  ASSERT_EQ(replay.jobs.size(), 1u);
  EXPECT_TRUE(replay.jobs[0].committed);
  EXPECT_EQ(replay.jobs[0].job.name, "early");
}

// ----------------------------------------------------------- disk store

TEST(DiskStore, PersistsAcrossInstances) {
  const std::string dir = make_temp_dir();
  const std::uint64_t key = 0xABCDEF0123456789ULL;
  {
    engine::ResultStore store;
    store.attach_disk(dir);
    store.insert(key, fake_result(-2.5));
    EXPECT_EQ(store.disk_entries(), 1u);
  }
  engine::ResultStore reopened;
  reopened.attach_disk(dir);
  EXPECT_EQ(reopened.disk_entries(), 1u);
  const auto cached = reopened.lookup(key);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cached->energy),
            std::bit_cast<std::uint64_t>(-2.5));
  EXPECT_EQ(reopened.disk_hits(), 1u);
  EXPECT_EQ(reopened.hits(), 1u);
  // Promoted into memory: the second lookup no longer touches disk.
  reopened.lookup(key);
  EXPECT_EQ(reopened.disk_hits(), 1u);
  EXPECT_EQ(reopened.hits(), 2u);
}

TEST(DiskStore, CorruptEntryIsAMissNeverACrash) {
  const std::string dir = make_temp_dir();
  const std::uint64_t key = 42;
  {
    engine::ResultStore store;
    store.attach_disk(dir);
    store.insert(key, fake_result(-3.25));
  }
  // Corrupt the single entry's payload (key 42 -> 16-hex filename).
  const std::string entry_path = dir + "/000000000000002a.entry";
  std::string contents = read_file(entry_path);
  ASSERT_FALSE(contents.empty());
  contents[contents.size() / 2] ^= 0x40;
  {
    std::ofstream out(entry_path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  engine::ResultStore store;
  store.attach_disk(dir);
  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_EQ(store.corrupt_misses(), 1u);
  EXPECT_EQ(store.misses(), 1u);
  EXPECT_EQ(store.disk_entries(), 0u);  // removed, not retried forever
  EXPECT_FALSE(std::ifstream(entry_path).good());
}

TEST(DiskStore, EvictsLeastRecentlyUsedAboveByteBudget) {
  const std::string dir = make_temp_dir();
  engine::ResultStore sizing;
  sizing.attach_disk(dir);
  sizing.insert(1, fake_result(-1.0));
  const std::uint64_t entry_bytes = sizing.disk_bytes();
  ASSERT_GT(entry_bytes, 0u);

  const std::string dir2 = make_temp_dir();
  engine::ResultStore store;
  store.attach_disk(dir2, /*max_bytes=*/entry_bytes * 2);
  store.insert(10, fake_result(-1.0));
  store.insert(11, fake_result(-1.0));
  EXPECT_EQ(store.evictions(), 0u);
  store.lookup(10);  // 10 is now the most recently used
  store.insert(12, fake_result(-1.0));
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_GT(store.evicted_bytes(), 0u);
  EXPECT_LE(store.disk_bytes(), entry_bytes * 2);
  EXPECT_EQ(store.disk_entries(), 2u);

  // The LRU victim was 11 (10 was touched); 10 and 12 survive on disk.
  engine::ResultStore reopened;
  reopened.attach_disk(dir2);
  EXPECT_TRUE(reopened.lookup(10).has_value());
  EXPECT_FALSE(reopened.lookup(11).has_value());
  EXPECT_TRUE(reopened.lookup(12).has_value());
}

// ------------------------------------------------- deadlines & shedding

TEST(Scheduler, DeadlineCancelsOverdueAttemptAndRetriesWithBackoff) {
  engine::EngineOptions options;
  options.concurrency = 1;
  options.cache = false;
  options.max_job_retries = 1;
  options.default_deadline_seconds = 0.05;
  options.watchdog_poll_ms = 2.0;
  options.backoff.base_ms = 5.0;
  options.backoff.seed = 9;

  engine::JobScheduler scheduler(options);
  engine::Job job = h2_job("hang");
  // Every HFX task sleeps 100 ms: the attempt cannot finish inside the
  // 50 ms deadline, so the watchdog cancels it at an iteration boundary.
  job.input.fault.hang_rate = 1.0;
  job.input.fault.hang_seconds = 0.1;
  ASSERT_TRUE(scheduler.submit(std::move(job)).accepted);
  const auto records = scheduler.drain();
  ASSERT_EQ(records.size(), 1u);
  const engine::JobRecord& record = records[0];
  EXPECT_EQ(record.state, engine::JobState::kFailed);
  EXPECT_EQ(record.attempts, 2u);
  EXPECT_GE(record.deadline_hits, 1u);
  EXPECT_NE(record.error.find("deadline"), std::string::npos);
  EXPECT_GT(record.backoff_ms, 0.0);
  EXPECT_GE(
      scheduler.registry().counter_total("engine.deadline.expired"), 1u);
  EXPECT_EQ(scheduler.registry().counter_total("engine.retry.backoff_ms"),
            static_cast<std::uint64_t>(std::llround(engine::backoff_delay_ms(
                options.backoff, record.id, 1))));
}

TEST(Scheduler, JobDeadlineOverridesEngineDefault) {
  engine::EngineOptions options;
  options.concurrency = 1;
  options.cache = false;
  options.max_job_retries = 0;
  options.default_deadline_seconds = 0.05;
  options.watchdog_poll_ms = 2.0;

  engine::JobScheduler scheduler(options);
  engine::Job job = h2_job("roomy");
  job.deadline_seconds = 30.0;  // generous per-job deadline wins
  ASSERT_TRUE(scheduler.submit(std::move(job)).accepted);
  const auto records = scheduler.drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].state, engine::JobState::kDone);
  EXPECT_EQ(records[0].deadline_hits, 0u);
}

TEST(Scheduler, ShedsLowestPriorityForHigherPriorityArrival) {
  engine::EngineOptions options;
  options.concurrency = 1;
  options.tenant_defaults.max_queued = 2;
  engine::JobScheduler scheduler(options);  // not started: jobs stay queued

  ASSERT_TRUE(scheduler.submit(h2_job("low1", "hf", 0)).accepted);
  ASSERT_TRUE(scheduler.submit(h2_job("low2", "hf", 0)).accepted);
  // Equal priority still rejects — FIFO fairness within a level.
  EXPECT_FALSE(scheduler.submit(h2_job("low3", "hf", 0)).accepted);
  // Strictly higher priority displaces the youngest lowest-priority job.
  const engine::Admission hot = scheduler.submit(h2_job("hot", "hf", 5));
  EXPECT_TRUE(hot.accepted);
  ASSERT_TRUE(hot.displaced.has_value());
  EXPECT_EQ(hot.displaced->name, "low2");
  EXPECT_EQ(scheduler.queue().shed(), 1u);

  const auto records = scheduler.drain();
  std::map<std::string, const engine::JobRecord*> by_name;
  for (const auto& r : records) by_name[r.name] = &r;
  ASSERT_EQ(records.size(), 4u);  // low1, hot ran; low2 shed; low3 rejected
  EXPECT_EQ(by_name.at("hot")->state, engine::JobState::kDone);
  EXPECT_EQ(by_name.at("low1")->state, engine::JobState::kDone);
  EXPECT_EQ(by_name.at("low2")->state, engine::JobState::kRejected);
  EXPECT_NE(by_name.at("low2")->reject_reason.find("shed"),
            std::string::npos);
  EXPECT_EQ(by_name.at("low3")->state, engine::JobState::kRejected);
  EXPECT_EQ(
      scheduler.registry().counter_total("engine.jobs_shed"), 1u);
}

TEST(Scheduler, DegradesXcGridUnderSaturation) {
  engine::EngineOptions options;
  options.concurrency = 1;
  options.cache = false;
  options.degrade_depth = 1;  // any backlog at pickup degrades DFT jobs
  engine::JobScheduler scheduler(options);
  ASSERT_TRUE(scheduler.submit(h2_job("dft1", "lda")).accepted);
  ASSERT_TRUE(scheduler.submit(h2_job("dft2", "lda")).accepted);
  const auto records = scheduler.drain();
  ASSERT_EQ(records.size(), 2u);
  // The first pickup sees the second job still queued -> degraded.
  const engine::JobRecord& first = records[0];
  EXPECT_EQ(first.state, engine::JobState::kDone);
  EXPECT_TRUE(first.degraded);
  EXPECT_NE(first.degrade_note.find("grid"), std::string::npos);
  EXPECT_EQ(first.input.grid_radial, 20);
  EXPECT_EQ(first.input.grid_angular, 26);
  EXPECT_GE(
      scheduler.registry().counter_total("engine.jobs_degraded"), 1u);
}

TEST(Scheduler, ResumeOverFullBacklogKeepsEveryJournaledJob) {
  // A campaign journal left by a crash: job 1 committed, jobs 2-5
  // accepted but unfinished — more than the resumed backlog cap of 2.
  const std::string dir = make_temp_dir();
  const std::string journal = dir + "/run.wal";
  {
    engine::Journal writer;
    writer.open(journal);
    for (std::uint64_t id = 1; id <= 5; ++id) {
      engine::Job job = h2_job("j" + std::to_string(id));
      job.id = id;
      writer.record_submitted(job);
    }
    engine::JobRecord committed;
    committed.id = 1;
    committed.name = "j1";
    committed.state = engine::JobState::kDone;
    committed.attempts = 1;
    committed.input = h2_job("j1").input;
    committed.result = fake_result(-1.25);
    writer.record_committed(committed);
  }
  engine::EngineOptions options;
  options.concurrency = 1;
  options.cache = false;  // every resubmitted job runs its SCF
  options.journal_path = journal;
  options.tenant_defaults.max_queued = 2;
  engine::JobScheduler scheduler(options);  // not started: all 4 pend

  const engine::ResumeSummary summary = scheduler.resume();
  EXPECT_EQ(summary.adopted, 1u);
  EXPECT_EQ(scheduler.queue().depth(), 4u);  // past the cap of 2

  scheduler.start();
  scheduler.queue().wait_idle();
  const engine::Admission fresh = scheduler.submit(h2_job("fresh"));
  ASSERT_TRUE(fresh.accepted) << fresh.reason;
  EXPECT_EQ(fresh.id, 6u);

  const auto records = scheduler.drain();
  ASSERT_EQ(records.size(), 6u);
  EXPECT_TRUE(records[0].replayed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(records[0].result.energy),
            std::bit_cast<std::uint64_t>(-1.25));
  for (std::uint64_t id = 1; id <= 6; ++id) {
    const engine::JobRecord& record = records[id - 1];
    EXPECT_EQ(record.id, id);
    EXPECT_EQ(record.state, engine::JobState::kDone) << record.name;
    EXPECT_EQ(record.replayed, id == 1) << record.name;
  }

  // Resubmission reused the journaled `submitted` records.
  std::map<std::uint64_t, int> submitted;
  std::istringstream lines(read_file(journal));
  std::string line;
  while (std::getline(lines, line)) {
    const obs::Json payload = obs::Json::parse(line.substr(line.find('{')));
    if (payload.find("type")->as_string() == "submitted")
      ++submitted[static_cast<std::uint64_t>(payload.find("id")->as_int())];
  }
  for (std::uint64_t id = 1; id <= 6; ++id)
    EXPECT_EQ(submitted[id], 1) << "job " << id;
}

TEST(Scheduler, StatusAndWaitFollowEveryTrackedId) {
  engine::EngineOptions options;
  options.concurrency = 1;
  engine::JobScheduler scheduler(options);  // not started: the job pends
  const engine::Admission admission = scheduler.submit(h2_job("tracked"));
  ASSERT_TRUE(admission.accepted);
  EXPECT_EQ(scheduler.status(admission.id), engine::JobState::kQueued);
  EXPECT_FALSE(scheduler.status(admission.id + 1).has_value());
  EXPECT_FALSE(scheduler.wait(admission.id + 1, 0.01).has_value());
  EXPECT_FALSE(scheduler.wait(admission.id, 0.01).has_value());  // timeout
  EXPECT_EQ(scheduler.job_counts().tracked, 1u);
  EXPECT_EQ(scheduler.job_counts().terminal, 0u);

  scheduler.start();
  const std::optional<engine::JobRecord> record =
      scheduler.wait(admission.id, 0.0);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, engine::JobState::kDone);
  EXPECT_EQ(scheduler.status(admission.id), engine::JobState::kDone);
  EXPECT_EQ(scheduler.job_counts().terminal, 1u);
  scheduler.drain();
}

// --------------------------------------------------------- crash & resume

namespace {

std::vector<engine::Job> crash_campaign_jobs() {
  // Three distinct methods plus their duplicates: the duplicates make a
  // resumed run hit the warm store. Deterministic ids = expansion order.
  // The pbe0 job is artificially slowed (every HFX task sleeps
  // slow_factor * stall_seconds) so the parent's SIGKILL reliably lands
  // while it is in flight; `slow` only sleeps, so physics is unchanged.
  std::vector<engine::Job> jobs;
  const char* methods[] = {"hf", "lda", "pbe0"};
  for (int rep = 0; rep < 2; ++rep)
    for (const char* method : methods) {
      engine::Job job = h2_job(
          std::string(method) + "#r" + std::to_string(rep + 1), method);
      if (std::string(method) == "pbe0") {
        job.input.fault.slow_rate = 1.0;
        job.input.fault.slow_factor = 30.0;
        job.input.fault.stall_seconds = 1e-3;
      }
      jobs.push_back(std::move(job));
    }
  for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].id = i + 1;
  return jobs;
}

engine::EngineOptions crash_options(const std::string& dir) {
  engine::EngineOptions options;
  options.concurrency = 1;
  options.journal_path = dir + "/run.wal";
  options.store_dir = dir + "/store";
  options.checkpoint_dir = dir + "/ckpts";
  return options;
}

std::size_t count_committed(const std::string& journal_path) {
  const std::string contents = read_file(journal_path);
  std::size_t count = 0, pos = 0;
  while ((pos = contents.find("\"type\":\"committed\"", pos)) !=
         std::string::npos) {
    ++count;
    pos += 1;
  }
  return count;
}

}  // namespace

TEST(CrashRecovery, SigkillMidCampaignResumesBitIdentical) {
  const std::string dir = make_temp_dir();
  ASSERT_EQ(::mkdir((dir + "/ckpts").c_str(), 0755), 0);

  // Reference: the same campaign, uninterrupted and undurable.
  std::map<std::uint64_t, std::uint64_t> reference_energy_bits;
  {
    engine::EngineOptions options;
    options.concurrency = 1;
    engine::JobScheduler reference(options);
    for (engine::Job& job : crash_campaign_jobs())
      ASSERT_TRUE(reference.submit(std::move(job)).accepted);
    for (const auto& record : reference.drain()) {
      ASSERT_EQ(record.state, engine::JobState::kDone) << record.name;
      reference_energy_bits[record.id] =
          std::bit_cast<std::uint64_t>(record.result.energy);
    }
  }

  // Child: run the durable campaign; parent SIGKILLs it after two jobs
  // have committed.
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    engine::JobScheduler scheduler(crash_options(dir));
    scheduler.start();
    for (engine::Job& job : crash_campaign_jobs())
      scheduler.submit(std::move(job));
    scheduler.drain();
    _exit(0);  // only reached when the kill arrives too late
  }
  const auto poll_start = std::chrono::steady_clock::now();
  while (count_committed(dir + "/run.wal") < 2 &&
         std::chrono::steady_clock::now() - poll_start <
             std::chrono::seconds(60))
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  const std::size_t committed_before_kill =
      count_committed(dir + "/run.wal");
  ASSERT_GE(committed_before_kill, 2u);

  // Resume: committed jobs come from the journal, the rest re-run (from
  // their checkpoint when one exists).
  engine::JobScheduler resumed(crash_options(dir));
  resumed.start();
  const engine::ResumeSummary summary = resumed.resume();
  const std::size_t adopted = summary.adopted;
  for (engine::Job& job : crash_campaign_jobs()) {
    if (summary.replay.find(job.id)) continue;  // resume() owns it
    ASSERT_TRUE(resumed.submit(std::move(job)).accepted);
  }
  const auto records = resumed.drain();

  // Every job completed; committed work was served, not recomputed.
  ASSERT_EQ(records.size(), reference_energy_bits.size());
  EXPECT_GE(adopted, committed_before_kill);
  std::size_t replayed = 0;
  for (const auto& record : records) {
    EXPECT_EQ(record.state, engine::JobState::kDone) << record.name;
    if (record.replayed) ++replayed;
    ASSERT_TRUE(reference_energy_bits.count(record.id));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(record.result.energy),
              reference_energy_bits.at(record.id))
        << "energy drifted across crash+resume for " << record.name;
  }
  EXPECT_EQ(replayed, adopted);
  EXPECT_EQ(resumed.registry().counter_total("engine.jobs_replayed"),
            adopted);
  // The duplicates hit the warm (journal- and disk-fed) store: no
  // duplicated SCF work for anything already computed.
  EXPECT_GT(resumed.store().hits(), 0u);
  const std::uint64_t scf_runs =
      resumed.registry().counter_total("engine.cache_misses");
  EXPECT_LE(scf_runs, reference_energy_bits.size() - adopted);
}

TEST(CrashRecovery, ResumeOfCompletedCampaignRecomputesNothing) {
  const std::string dir = make_temp_dir();
  ASSERT_EQ(::mkdir((dir + "/ckpts").c_str(), 0755), 0);
  std::map<std::uint64_t, std::uint64_t> first_bits;
  {
    engine::JobScheduler scheduler(crash_options(dir));
    for (engine::Job& job : crash_campaign_jobs())
      ASSERT_TRUE(scheduler.submit(std::move(job)).accepted);
    for (const auto& record : scheduler.drain())
      first_bits[record.id] =
          std::bit_cast<std::uint64_t>(record.result.energy);
  }
  engine::JobScheduler resumed(crash_options(dir));
  const engine::ResumeSummary summary = resumed.resume();
  for (const engine::Job& job : crash_campaign_jobs()) {
    const engine::ReplayedJob* prior = summary.replay.find(job.id);
    ASSERT_NE(prior, nullptr);
    ASSERT_TRUE(prior->committed);
  }
  const auto records = resumed.drain();
  ASSERT_EQ(records.size(), first_bits.size());
  for (const auto& record : records) {
    EXPECT_TRUE(record.replayed);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(record.result.energy),
              first_bits.at(record.id));
  }
  EXPECT_EQ(resumed.registry().counter_total("engine.cache_misses"), 0u);
}

// ------------------------------------------------------ campaign grammar

TEST(Campaign, ParsesDurabilityKeywords) {
  const engine::CampaignSpec spec = engine::parse_campaign(
      "journal run.wal\n"
      "store_dir store\n"
      "store_max_bytes 4096\n"
      "deadline 30\n"
      "degrade_depth 7\n"
      "backoff_base_ms 5\n"
      "backoff_max_ms 500\n"
      "backoff_jitter 0.25\n"
      "backoff_seed 99\n"
      "sweep\n"
      "  molecules water\n"
      "  deadline 10\n"
      "end\n");
  EXPECT_EQ(spec.engine.journal_path, "run.wal");
  EXPECT_EQ(spec.engine.store_dir, "store");
  EXPECT_EQ(spec.engine.store_max_bytes, 4096u);
  EXPECT_DOUBLE_EQ(spec.engine.default_deadline_seconds, 30.0);
  EXPECT_EQ(spec.engine.degrade_depth, 7u);
  EXPECT_DOUBLE_EQ(spec.engine.backoff.base_ms, 5.0);
  EXPECT_DOUBLE_EQ(spec.engine.backoff.max_ms, 500.0);
  EXPECT_DOUBLE_EQ(spec.engine.backoff.jitter, 0.25);
  EXPECT_EQ(spec.engine.backoff.seed, 99u);
  const auto jobs = spec.expand();
  ASSERT_FALSE(jobs.empty());
  EXPECT_DOUBLE_EQ(jobs[0].deadline_seconds, 10.0);
}

TEST(Campaign, RejectsNegativeDeadline) {
  EXPECT_THROW(engine::parse_campaign("deadline -1\nsweep\nend\n"),
               std::runtime_error);
}
