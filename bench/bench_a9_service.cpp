// A9 — sustained-campaign scale benchmark for the screening service
// (src/serve): a mixed 10k-job campaign driven by concurrent client
// threads over the real TCP line protocol, with one SIGKILL + --resume
// restart in the middle of the run.
//
// Three things are measured:
//
//   campaign — N client threads pipeline a window of submits per
//     connection against a live server in a separate process; the
//     parent SIGKILLs that process after ~30% of the results have
//     arrived and restarts it on the same port with resume enabled.
//     Clients reconnect and keep collecting. Reported: client-observed
//     submit-to-result latency percentiles (p50/p90/p99, crash window
//     included — that spike is the recovery cost, not noise), cache
//     hit-rate from the duplicate share of the mix, per-tenant
//     completion/reject/shed accounting, journal-replayed jobs after
//     the restart, and jobs/hour.
//
//   bit-identity — a sample of served records is re-run through
//     app::run_structured() on the record's own executed input; the
//     energies must match to the last bit (the service adds transport
//     and scheduling, never physics).
//
//   fair-share — a saturated two-tenant segment with 2:1 weights; the
//     per-tenant completion ratio at mid-campaign must sit within 20%
//     of the weight ratio (the same invariant tests/test_serve.cpp
//     pins).
//
// Process architecture: the server generations are forked by a
// single-threaded supervisor child created before the parent spawns any
// client threads — fork() from a threaded process may inherit a lock
// mid-flight, so the only thing the threaded parent ever does is write
// one-word commands down a pipe. The SIGKILL is a real kill(2) of a
// real process; recovery is the journal replay path, not a simulation.
//
// --smoke shrinks the campaign (~120 jobs) for the tier-1 gate; the
// full campaign is the acceptance run and writes BENCH_service.json.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "workload/geometries.hpp"

namespace {

using namespace mthfx;

// ------------------------------------------------------------ plumbing

const obs::Json& member(const obs::Json& j, const std::string& key) {
  static const obs::Json null_json;
  const obs::Json* found = j.find(key);
  return found ? *found : null_json;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/mthfx_a9_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  if (!dir) throw std::runtime_error("mkdtemp failed");
  return dir;
}

app::Input h2_input(double jitter_bohr, double stall_seconds = 0.0) {
  app::Input input;
  input.method = "hf";
  input.basis = "sto-3g";
  input.eps_schwarz = 1e-8;
  input.num_threads = 1;
  chem::Molecule mol;
  mol.add_atom(1, {0.0, 0.0, 0.0});
  mol.add_atom(1, {0.0, 0.0, 1.4 + jitter_bohr});
  input.molecule = mol;
  if (stall_seconds > 0.0) {
    input.fault.slow_rate = 1.0;
    input.fault.slow_factor = 1.0;
    input.fault.stall_seconds = stall_seconds;
  }
  return input;
}

// -------------------------------------------------------- supervisor
//
// Single-threaded child that forks/kills/waits server generations on
// pipe commands: "spawn" (first call: fresh; later calls: --resume on
// the same port) -> replies the bound port; "kill" -> SIGKILL the
// current generation; "wait" -> waitpid, replies the exit code.

serve::ServeOptions g_server_options;  // set before the supervisor forks

struct Supervisor {
  pid_t pid = -1;
  int cmd_w = -1;   // parent -> supervisor commands
  int reply_r = -1;  // supervisor -> parent replies

  void command(const std::string& word) const {
    const std::string line = word + "\n";
    if (::write(cmd_w, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size()))
      throw std::runtime_error("supervisor pipe broken");
  }
  std::string reply() const {
    std::string line;
    char c;
    while (::read(reply_r, &c, 1) == 1 && c != '\n') line.push_back(c);
    return line;
  }
};

pid_t spawn_server_generation(const serve::ServeOptions& options,
                              int* port_out) {
  int fds[2];
  if (pipe(fds) != 0) _exit(3);
  const pid_t pid = fork();
  if (pid < 0) _exit(3);
  if (pid == 0) {
    ::close(fds[0]);
    {
      serve::Server server(options);
      server.start();
      const std::string port = std::to_string(server.port()) + "\n";
      (void)!::write(fds[1], port.data(), port.size());
      ::close(fds[1]);
      while (!server.stop_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const std::vector<engine::JobRecord> records = server.stop();
      for (const auto& r : records)
        if (r.state == engine::JobState::kFailed) _exit(1);
    }
    _exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char c;
  while (::read(fds[0], &c, 1) == 1 && c != '\n') text.push_back(c);
  ::close(fds[0]);
  *port_out = std::atoi(text.c_str());
  return pid;
}

void supervisor_loop(int cmd_r, int reply_w) {
  serve::ServeOptions options = g_server_options;
  pid_t server = -1;
  bool spawned_once = false;
  std::string line;
  char c;
  auto reply = [&](const std::string& text) {
    const std::string out = text + "\n";
    (void)!::write(reply_w, out.data(), out.size());
  };
  while (::read(cmd_r, &c, 1) == 1) {
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    if (line == "spawn") {
      if (spawned_once) options.resume = true;  // and the pinned port
      int port = 0;
      server = spawn_server_generation(options, &port);
      options.port = port;  // later generations rebind the same port
      spawned_once = true;
      reply(std::to_string(port));
    } else if (line == "kill") {
      if (server > 0) {
        ::kill(server, SIGKILL);
        int status = 0;
        ::waitpid(server, &status, 0);
        server = -1;
      }
      reply("killed");
    } else if (line == "wait") {
      int status = 0;
      if (server > 0) ::waitpid(server, &status, 0);
      server = -1;
      reply(std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : 128));
    } else if (line == "quit") {
      break;
    }
    line.clear();
  }
  if (server > 0) ::kill(server, SIGKILL);
  _exit(0);
}

Supervisor fork_supervisor() {
  int cmd[2], rep[2];
  if (pipe(cmd) != 0 || pipe(rep) != 0)
    throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(cmd[1]);
    ::close(rep[0]);
    supervisor_loop(cmd[0], rep[1]);
    _exit(0);
  }
  ::close(cmd[0]);
  ::close(rep[1]);
  return {pid, cmd[1], rep[0]};
}

// ----------------------------------------------------- client workers

struct CampaignJob {
  std::string name;
  app::Input input;
  int priority = 0;
};

struct WorkerTally {
  std::size_t completed = 0, failed = 0, canceled = 0;
  std::size_t quota_backoffs = 0, reconnects = 0, resubmitted = 0;
  std::vector<double> latencies_ms;
  obs::Json sample_record;  // one served record for the bit-identity check
};

std::atomic<std::size_t> g_completed{0};
std::atomic<int> g_port{0};

std::unique_ptr<serve::Client> connect_with_retry(const std::string& tenant) {
  while (true) {
    try {
      auto client =
          std::make_unique<serve::Client>("127.0.0.1", g_port.load());
      client->hello(tenant);
      return client;
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }
}

/// One client connection: pipeline up to `window` submits, collect
/// results oldest-first, survive quota pushback and server restarts.
WorkerTally run_worker(const std::string& tenant,
                       const std::vector<CampaignJob>& jobs,
                       std::size_t window) {
  using clock = std::chrono::steady_clock;
  struct Pending {
    std::uint64_t id;
    std::size_t job;
    clock::time_point t0;
  };
  WorkerTally tally;
  std::deque<std::size_t> todo;
  for (std::size_t i = 0; i < jobs.size(); ++i) todo.push_back(i);
  std::deque<Pending> inflight;
  auto client = connect_with_retry(tenant);

  auto reconnect = [&] {
    ++tally.reconnects;
    client = connect_with_retry(tenant);
  };

  while (!todo.empty() || !inflight.empty()) {
    try {
      // Fill the submit window.
      while (inflight.size() < window && !todo.empty()) {
        const std::size_t at = todo.front();
        const CampaignJob& job = jobs[at];
        const clock::time_point t0 = clock::now();
        const obs::Json r =
            client->submit(job.name, job.input, job.priority);
        if (!member(r, "ok").as_bool()) {
          const std::string error = member(r, "error").as_string();
          if (error.find("tenant quota") != std::string::npos) {
            // Admission pushback: let the backlog drain a little.
            ++tally.quota_backoffs;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            break;
          }
          throw std::runtime_error("submit: " + error);
        }
        todo.pop_front();
        inflight.push_back(
            {static_cast<std::uint64_t>(member(r, "id").as_int()), at, t0});
      }
      if (inflight.empty()) continue;

      const Pending head = inflight.front();
      const obs::Json r = client->result(head.id, /*timeout_s=*/5.0);
      if (!member(r, "ok").as_bool()) {
        const std::string error = member(r, "error").as_string();
        if (error.find("timeout") != std::string::npos) continue;
        if (error.find("unknown job id") != std::string::npos) {
          // The submit ack raced the crash and the journal never saw
          // the job: put it back in the queue under a fresh submit.
          inflight.pop_front();
          todo.push_front(head.job);
          ++tally.resubmitted;
          continue;
        }
        // "server stopping ..." and friends: reconnect and retry.
        reconnect();
        continue;
      }
      inflight.pop_front();
      const std::string state = member(r, "state").as_string();
      if (state == "done") {
        ++tally.completed;
        g_completed.fetch_add(1);
        tally.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(clock::now() - head.t0)
                .count());
        if (tally.sample_record.is_null() &&
            member(r, "record").find("input") != nullptr)
          tally.sample_record = member(r, "record");
      } else if (state == "canceled") {
        ++tally.canceled;
      } else {
        ++tally.failed;
      }
    } catch (const std::exception&) {
      // Broken connection (crash window). Acked jobs survive in the
      // journal; re-request them on the next generation.
      reconnect();
    }
  }
  return tally;
}

// ------------------------------------------------------------ campaign

struct CampaignConfig {
  std::size_t total_jobs;
  std::size_t clients;
  std::size_t window;
  std::size_t kill_after;  // SIGKILL the server after this many results
  std::size_t concurrency;
  std::size_t tenant_max_queued;
};

obs::Json run_campaign(const CampaignConfig& cfg) {
  const std::string dir = make_temp_dir();
  const std::vector<std::string> tenant_names = {"alpha", "beta", "gamma"};
  const std::vector<double> tenant_weights = {2.0, 1.0, 1.0};

  serve::ServeOptions options;
  options.port = 0;
  options.engine.concurrency = cfg.concurrency;
  options.engine.total_threads = cfg.concurrency;  // 1 thread/job: exact bits
  options.engine.cache = true;
  options.engine.journal_path = dir + "/serve.wal";
  options.engine.store_dir = dir + "/store";
  options.engine.checkpoint_dir = dir + "/ckpt";
  for (std::size_t t = 0; t < tenant_names.size(); ++t) {
    engine::TenantConfig tenant;
    tenant.id = tenant_names[t];
    tenant.options.weight = tenant_weights[t];
    tenant.options.max_queued = cfg.tenant_max_queued;
    options.engine.tenants.push_back(tenant);
  }

  // The job mix: unique H2 geometries (1 nm-scale jitter keeps every
  // fingerprint distinct) with every 4th submission repeating the
  // previous one — the duplicate share the cache should absorb.
  std::vector<CampaignJob> jobs(cfg.total_jobs);
  for (std::size_t i = 0; i < cfg.total_jobs; ++i) {
    const bool duplicate = (i % 4 == 3);
    const double jitter = static_cast<double>(duplicate ? i - 1 : i) * 1e-9;
    jobs[i].name = "c" + std::to_string(i);
    jobs[i].input = h2_input(jitter);
    jobs[i].priority = static_cast<int>(i % 3);
  }

  // Supervisor first (single-threaded fork), then the client fleet.
  g_server_options = options;
  Supervisor sup = fork_supervisor();
  sup.command("spawn");
  g_port.store(std::atoi(sup.reply().c_str()));
  g_completed.store(0);

  obs::Stopwatch watch;
  std::vector<WorkerTally> tallies(cfg.clients);
  std::vector<std::thread> workers;
  workers.reserve(cfg.clients);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    // Slice the campaign round-robin so every tenant runs all job kinds.
    std::vector<CampaignJob> slice;
    for (std::size_t i = c; i < jobs.size(); i += cfg.clients)
      slice.push_back(jobs[i]);
    const std::string tenant = tenant_names[c % tenant_names.size()];
    workers.emplace_back([&, c, tenant, slice = std::move(slice)] {
      tallies[c] = run_worker(tenant, slice, cfg.window);
    });
  }

  // Mid-campaign crash: SIGKILL once the results counter crosses the
  // threshold, restart the same port with resume enabled.
  double restart_seconds = 0.0;
  {
    while (g_completed.load() < cfg.kill_after)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    obs::Stopwatch restart;
    sup.command("kill");
    sup.reply();
    sup.command("spawn");
    const int port = std::atoi(sup.reply().c_str());
    g_port.store(port);
    restart_seconds = restart.seconds();
  }
  for (auto& worker : workers) worker.join();
  const double wall_seconds = watch.seconds();

  // Server-side accounting, then a clean drain.
  obs::Json stats;
  std::size_t replayed = 0;
  {
    serve::Client closer("127.0.0.1", g_port.load());
    closer.hello("alpha");
    stats = member(closer.stats(), "stats");
    replayed = static_cast<std::size_t>(member(stats, "replayed").as_int());
    closer.drain("bench complete");
  }
  sup.command("wait");
  const int server_exit = std::atoi(sup.reply().c_str());
  sup.command("quit");
  ::waitpid(sup.pid, nullptr, 0);
  ::close(sup.cmd_w);
  ::close(sup.reply_r);

  // Bit-identity: re-run each sampled record's executed input directly.
  std::size_t verified = 0, mismatched = 0;
  for (const auto& tally : tallies) {
    if (tally.sample_record.is_null()) continue;
    const app::Input as_executed =
        engine::input_from_json(member(tally.sample_record, "input"));
    const double served =
        member(member(tally.sample_record, "result"), "energy").as_double();
    const app::StructuredResult direct = app::run_structured(as_executed);
    if (std::bit_cast<std::uint64_t>(served) ==
        std::bit_cast<std::uint64_t>(direct.energy))
      ++verified;
    else
      ++mismatched;
  }

  WorkerTally total;
  std::vector<double> latencies;
  for (const auto& tally : tallies) {
    total.completed += tally.completed;
    total.failed += tally.failed;
    total.canceled += tally.canceled;
    total.quota_backoffs += tally.quota_backoffs;
    total.reconnects += tally.reconnects;
    total.resubmitted += tally.resubmitted;
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
  }
  const double hits = member(member(stats, "cache"), "hits").as_double();
  const double misses = member(member(stats, "cache"), "misses").as_double();
  const double hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  const double jobs_per_hour =
      wall_seconds > 0 ? 3600.0 * static_cast<double>(total.completed) /
                             wall_seconds
                       : 0.0;

  std::printf(
      "campaign: %zu jobs, %zu clients (window %zu), wall %.2f s "
      "(%.0f jobs/hour)\n",
      cfg.total_jobs, cfg.clients, cfg.window, wall_seconds, jobs_per_hour);
  std::printf(
      "  completed %zu, failed %zu, canceled %zu; %zu quota backoff(s), "
      "%zu reconnect(s), %zu resubmit(s)\n",
      total.completed, total.failed, total.canceled, total.quota_backoffs,
      total.reconnects, total.resubmitted);
  std::printf(
      "  crash: restart %.3f s, %zu job(s) replayed from the journal\n",
      restart_seconds, replayed);
  std::printf("  cache: %.0f hits / %.0f misses (%.1f%% hit rate)\n", hits,
              misses, 100.0 * hit_rate);
  std::printf(
      "  latency: p50 %.1f ms, p90 %.1f ms, p99 %.1f ms "
      "(crash window included)\n",
      percentile(latencies, 0.50), percentile(latencies, 0.90),
      percentile(latencies, 0.99));
  std::printf("  bit-identity: %zu sample(s) verified, %zu mismatched\n",
              verified, mismatched);
  std::printf("  server exit code %d\n", server_exit);

  obs::Json record = obs::Json::object();
  record["jobs_total"] = cfg.total_jobs;
  record["clients"] = cfg.clients;
  record["window"] = cfg.window;
  record["wall_seconds"] = wall_seconds;
  record["jobs_per_hour"] = jobs_per_hour;
  record["completed"] = total.completed;
  record["failed"] = total.failed;
  record["canceled"] = total.canceled;
  record["quota_backoffs"] = total.quota_backoffs;
  record["reconnects"] = total.reconnects;
  record["resubmitted_after_crash"] = total.resubmitted;
  record["replayed_after_resume"] = replayed;
  record["restart_seconds"] = restart_seconds;
  record["server_exit_code"] = server_exit;
  obs::Json cache = obs::Json::object();
  cache["hits"] = hits;
  cache["misses"] = misses;
  cache["hit_rate"] = hit_rate;
  record["cache"] = std::move(cache);
  obs::Json latency = obs::Json::object();
  latency["p50_ms"] = percentile(latencies, 0.50);
  latency["p90_ms"] = percentile(latencies, 0.90);
  latency["p99_ms"] = percentile(latencies, 0.99);
  record["latency_ms"] = std::move(latency);
  obs::Json identity = obs::Json::object();
  identity["verified"] = verified;
  identity["mismatched"] = mismatched;
  record["bit_identity"] = std::move(identity);
  record["tenants"] = member(stats, "tenants");
  return record;
}

// ---------------------------------------------------------- fair share

obs::Json run_fair_share_segment(std::size_t jobs_per_tenant,
                                 double stall_seconds) {
  serve::ServeOptions options;
  options.engine.concurrency = 2;
  options.engine.total_threads = 2;
  options.engine.cache = false;
  engine::TenantConfig heavy, light;
  heavy.id = "heavy";
  heavy.options.weight = 2.0;
  heavy.options.max_queued = 4096;
  light.id = "light";
  light.options.weight = 1.0;
  light.options.max_queued = 4096;
  options.engine.tenants = {heavy, light};
  serve::Server server(options);
  server.start();

  serve::Client heavy_client("127.0.0.1", server.port());
  serve::Client light_client("127.0.0.1", server.port());
  heavy_client.hello("heavy");
  light_client.hello("light");
  for (std::size_t i = 0; i < jobs_per_tenant; ++i) {
    heavy_client.submit("h" + std::to_string(i),
                        h2_input(static_cast<double>(i) * 1e-9,
                                 stall_seconds));
    light_client.submit("l" + std::to_string(i),
                        h2_input(1e-3 + static_cast<double>(i) * 1e-9,
                                 stall_seconds));
  }

  auto completed = [&](const obs::Json& stats, const char* tenant) {
    return member(member(member(member(stats, "stats"), "tenants"), tenant),
                  "completed")
        .as_int();
  };
  std::int64_t heavy_done = 0, light_done = 0;
  for (int poll = 0; poll < 4000; ++poll) {
    const obs::Json sample = heavy_client.stats();
    heavy_done = completed(sample, "heavy");
    light_done = completed(sample, "light");
    if (heavy_done + light_done >=
        static_cast<std::int64_t>(jobs_per_tenant))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double ratio = light_done > 0 ? static_cast<double>(heavy_done) /
                                            static_cast<double>(light_done)
                                      : 0.0;
  const bool within = ratio > 2.0 * 0.8 && ratio < 2.0 * 1.2;
  server.stop();

  std::printf(
      "fair-share: weights 2:1 at mid-campaign -> heavy %lld / light %lld "
      "(ratio %.2f, within 20%%: %s)\n",
      static_cast<long long>(heavy_done), static_cast<long long>(light_done),
      ratio, within ? "yes" : "NO");

  obs::Json record = obs::Json::object();
  record["weight_ratio"] = 2.0;
  record["heavy_completed"] = heavy_done;
  record["light_completed"] = light_done;
  record["completion_ratio"] = ratio;
  record["within_20pct"] = within;
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  CampaignConfig cfg;
  if (smoke) {
    cfg = {/*total_jobs=*/120, /*clients=*/4, /*window=*/8,
           /*kill_after=*/30, /*concurrency=*/2,
           /*tenant_max_queued=*/64};
  } else {
    cfg = {/*total_jobs=*/10000, /*clients=*/8, /*window=*/32,
           /*kill_after=*/3000, /*concurrency=*/8,
           /*tenant_max_queued=*/96};
  }

  bench::print_header(
      smoke ? "A9: screening service, smoke campaign (--smoke)"
            : "A9: screening service, sustained 10k-job campaign");
  obs::Json record = obs::Json::object();
  record["mode"] = smoke ? "smoke" : "full";
  record["campaign"] = run_campaign(cfg);
  record["fair_share"] =
      run_fair_share_segment(smoke ? 30 : 60, smoke ? 0.002 : 0.004);

  // CI gate (the acceptance contract, timing-free): every job must come
  // back done, at least one replayed through the crash, every sampled
  // energy bit-identical, and the server must have drained cleanly.
  const obs::Json& campaign = record["campaign"];
  const bool ok =
      member(campaign, "completed").as_int() ==
          static_cast<std::int64_t>(cfg.total_jobs) &&
      member(campaign, "failed").as_int() == 0 &&
      member(campaign, "replayed_after_resume").as_int() >= 1 &&
      member(member(campaign, "bit_identity"), "verified").as_int() >= 1 &&
      member(member(campaign, "bit_identity"), "mismatched").as_int() == 0 &&
      member(campaign, "server_exit_code").as_int() == 0;
  if (!ok) std::printf("A9: acceptance contract FAILED\n");

  // Smoke runs gate CI but never overwrite the committed full-campaign
  // record.
  if (!smoke) bench::write_bench_json("service", record);
  return ok ? 0 : 1;
}
