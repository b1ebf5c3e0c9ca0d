// mthfx_queue — high-throughput screening front-end: run a campaign
// file (grammar: src/engine/campaign.hpp, docs/engine.md) through the
// multi-job execution engine.
//
//   ./build/examples/mthfx_queue examples/inputs/screening.campaign
//   ./build/examples/mthfx_queue --report=jobs.json screening.campaign
//   ./build/examples/mthfx_queue --concurrency=4 screening.campaign
//   ./build/examples/mthfx_queue --journal=run.wal --store=store \
//       --resume screening.campaign
//
// Prints a per-job table (state, attempts, cache hits, wait/run time,
// energy) plus queue/cache statistics, and with --report writes the full
// machine-readable campaign record (schema mthfx.campaign.v1). Exit code
// 0 when every admitted job finished ok, 1 when any failed or was
// rejected, 2 on usage/parse errors.
//
// Durability: --journal writes every job transition ahead to a
// checksummed journal; --resume runs JobScheduler::resume, which serves
// committed jobs from their journaled records (bit-identical physics,
// zero duplicated SCF work) and resubmits every other journaled job
// under its id, from its checkpoint when one was written. The journal is
// authoritative for every id it holds: the campaign file only supplies
// the jobs it never saw. --store persists the result cache across runs;
// --deadline bounds each job's wall clock. See docs/engine.md
// (Durability).

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/report.hpp"
#include "engine/scheduler.hpp"
#include "parse_number.hpp"

namespace {

// Graceful shutdown: SIGINT/SIGTERM stop the submission loop; jobs
// already admitted drain normally and the journal gets a clean
// `shutdown` record, so a later --resume picks up exactly the
// unsubmitted tail. Async-signal-safe: the handler only sets the flag.
volatile std::sig_atomic_t g_signal = 0;
void handle_signal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  std::string report_file;
  std::size_t concurrency_override = 0;
  std::string journal_override, store_override;
  double deadline_override = -1.0;  // < 0: keep the campaign's
  bool resume = false;
  const char* campaign_path = nullptr;
  bool bad_usage = false;
  for (int i = 1; i < argc && !bad_usage; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--report=", 9) == 0) {
      report_file = arg + 9;
    } else if (std::strncmp(arg, "--concurrency=", 14) == 0) {
      bad_usage = !parse_number(arg + 14, concurrency_override);
    } else if (std::strncmp(arg, "--journal=", 10) == 0) {
      journal_override = arg + 10;
    } else if (std::strncmp(arg, "--store=", 8) == 0) {
      store_override = arg + 8;
    } else if (std::strncmp(arg, "--deadline=", 11) == 0) {
      bad_usage = !parse_number(arg + 11, deadline_override);
    } else if (std::strcmp(arg, "--resume") == 0) {
      resume = true;
    } else if (!campaign_path) {
      campaign_path = arg;
    } else {
      bad_usage = true;
    }
  }
  if (bad_usage || !campaign_path) {
    std::fprintf(stderr,
                 "usage: %s [--report=file.json] [--concurrency=N]"
                 " [--journal=file.wal] [--resume] [--store=dir]"
                 " [--deadline=seconds] <campaign-file>\n"
                 "campaign format: see src/engine/campaign.hpp\n",
                 argv[0]);
    return 2;
  }

  try {
    using namespace mthfx;
    engine::CampaignSpec spec = engine::parse_campaign_file(campaign_path);
    if (concurrency_override > 0)
      spec.engine.concurrency = concurrency_override;
    if (!journal_override.empty()) spec.engine.journal_path = journal_override;
    if (!store_override.empty()) spec.engine.store_dir = store_override;
    if (deadline_override >= 0.0)
      spec.engine.default_deadline_seconds = deadline_override;
    if (resume && spec.engine.journal_path.empty()) {
      std::fprintf(stderr,
                   "error: --resume needs a journal (--journal= or the "
                   "campaign 'journal' keyword)\n");
      return 2;
    }

    std::vector<engine::Job> jobs = spec.expand();
    // Ids follow expansion order (starting at 1), so a resumed run can
    // tell which jobs the journal already holds.
    for (std::size_t i = 0; i < jobs.size(); ++i)
      jobs[i].id = static_cast<std::uint64_t>(i) + 1;

    engine::JobScheduler scheduler(spec.engine);
    std::printf(
        "campaign: %zu jobs, concurrency %zu, %zu thread(s) total "
        "(%zu per job), queue capacity %zu\n",
        jobs.size(), spec.engine.concurrency, scheduler.total_threads(),
        scheduler.per_job_threads(), spec.engine.tenant_defaults.max_queued);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    scheduler.start();
    engine::ResumeSummary resumed;
    if (resume) {
      resumed = scheduler.resume();
      for (const std::string& warning : resumed.replay.warnings)
        std::fprintf(stderr, "[resume] %s\n", warning.c_str());
      std::printf(
          "[resume] %zu job(s) served from the journal, %zu restarting "
          "from checkpoints, %zu journal record(s) applied\n",
          resumed.adopted, resumed.from_checkpoint, resumed.replay.records);
    }
    std::size_t unsubmitted = 0;
    for (engine::Job& job : jobs) {
      if (resumed.replay.find(job.id)) continue;  // resume() owns it
      if (g_signal != 0) {
        ++unsubmitted;
        continue;
      }
      const engine::Admission admission = scheduler.submit(std::move(job));
      if (!admission.accepted)
        std::fprintf(stderr, "rejected: %s\n", admission.reason.c_str());
    }
    const std::vector<engine::JobRecord> records = scheduler.drain();
    if (scheduler.journal().active())
      scheduler.journal().record_shutdown(
          g_signal != 0 ? "signal " + std::to_string(g_signal) : "complete");
    if (g_signal != 0)
      std::printf(
          "[shutdown] signal %d: drained admitted jobs, left %zu "
          "unsubmitted (resume with --resume)\n",
          static_cast<int>(g_signal), unsubmitted);

    std::printf("%-6s %-28s %-9s %-5s %-6s %9s %9s  %-18s\n", "id", "job",
                "state", "try", "cache", "wait/ms", "run/ms", "energy/Ha");
    std::size_t done = 0, failed = 0, rejected = 0;
    for (const auto& r : records) {
      if (r.state == engine::JobState::kRejected) {
        ++rejected;
        std::printf("%-6s %-28s %-9s %-5s %-6s %9s %9s  %s\n", "-",
                    r.name.c_str(), "rejected", "-", "-", "-", "-",
                    r.reject_reason.c_str());
        continue;
      }
      if (r.state == engine::JobState::kDone)
        ++done;
      else
        ++failed;
      const std::string note =
          r.error.empty() ? std::string() : "  [" + r.error + "]";
      std::printf("%-6llu %-28s %-9s %-5zu %-6s %9.2f %9.2f  %.10f%s\n",
                  static_cast<unsigned long long>(r.id), r.name.c_str(),
                  engine::to_string(r.state), r.attempts,
                  r.replayed ? "replay" : (r.cache_hit ? "hit" : "-"),
                  1e3 * r.wait_seconds,
                  1e3 * r.run_seconds, r.result.energy, note.c_str());
    }
    std::printf(
        "\n%zu done, %zu failed, %zu rejected; queue high-water %zu/%zu; "
        "cache %llu hits / %llu misses; %llu job retries\n",
        done, failed, rejected, scheduler.queue().high_water(),
        spec.engine.tenant_defaults.max_queued,
        static_cast<unsigned long long>(scheduler.store().hits()),
        static_cast<unsigned long long>(scheduler.store().misses()),
        static_cast<unsigned long long>(
            scheduler.registry().counter_total("engine.job_retries")));
    if (scheduler.store().disk_attached())
      std::printf(
          "store: %llu disk hit(s), %zu entries (%llu bytes), "
          "%llu corrupt miss(es), %llu eviction(s)\n",
          static_cast<unsigned long long>(scheduler.store().disk_hits()),
          scheduler.store().disk_entries(),
          static_cast<unsigned long long>(scheduler.store().disk_bytes()),
          static_cast<unsigned long long>(scheduler.store().corrupt_misses()),
          static_cast<unsigned long long>(scheduler.store().evictions()));
    const auto shed = scheduler.queue().shed();
    const auto deadline_hits =
        scheduler.registry().counter_total("engine.deadline.expired");
    if (shed > 0 || deadline_hits > 0)
      std::printf("shed %llu job(s); %llu deadline expiration(s)\n",
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(deadline_hits));
    if (scheduler.journal().active())
      std::printf("journal: %llu record(s) appended to %s\n",
                  static_cast<unsigned long long>(
                      scheduler.journal().appended()),
                  scheduler.journal().path().c_str());

    if (!report_file.empty()) {
      std::ofstream out(report_file);
      if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", report_file.c_str());
        return 2;
      }
      out << engine::campaign_report(scheduler, records).dump(2) << "\n";
      std::printf("[report] wrote %s\n", report_file.c_str());
    }
    return (failed == 0 && rejected == 0) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
