// Service suite (ctest label: serve): line-protocol codec, the
// multi-tenant TCP server end-to-end (hello/submit/status/result/
// cancel/stats/drain), quota rejection with the pinned reason format,
// weighted fair-share ratios under saturation, rude disconnects,
// concurrent clients, graceful SIGTERM drain, and the headline drill —
// SIGKILL a live server mid-campaign, restart it with resume, and
// demand that reconnecting clients get every result, ≥1 of them served
// straight from the journal, all bit-identical to a direct
// run_structured() of the same input.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/driver.hpp"
#include "engine/journal.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workload/geometries.hpp"

namespace app = mthfx::app;
namespace chem = mthfx::chem;
namespace engine = mthfx::engine;
namespace obs = mthfx::obs;
namespace serve = mthfx::serve;
namespace wl = mthfx::workload;

namespace {

std::string make_temp_dir() {
  std::string tmpl = "/tmp/mthfx_serve_XXXXXX";
  char* dir = mkdtemp(tmpl.data());
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "/tmp";
}

/// H2 at 1.4 + jitter bohr. The jitter (default 0) makes inputs unique
/// under the content-addressed cache — execution-policy fields like
/// fault seeds are excluded from the fingerprint, geometry is not.
app::Input h2_input(double jitter_bohr = 0.0) {
  app::Input input;
  input.method = "hf";
  input.basis = "sto-3g";
  input.eps_schwarz = 1e-8;
  input.num_threads = 1;
  chem::Molecule mol;
  mol.add_atom(1, {0.0, 0.0, 0.0});
  mol.add_atom(1, {0.0, 0.0, 1.4 + jitter_bohr});
  input.molecule = mol;
  return input;
}

/// Straggler variant: every HFX task sleeps, so one job holds a worker
/// for an observable window.
app::Input slow_h2_input(double jitter_bohr, double stall_seconds) {
  app::Input input = h2_input(jitter_bohr);
  input.fault.slow_rate = 1.0;
  input.fault.slow_factor = 1.0;
  input.fault.stall_seconds = stall_seconds;
  return input;
}

std::uint64_t energy_bits(double energy) {
  return std::bit_cast<std::uint64_t>(energy);
}

const obs::Json& member(const obs::Json& j, const char* key) {
  const obs::Json* m = j.find(key);
  EXPECT_NE(m, nullptr) << "missing member '" << key << "' in " << j.dump();
  static const obs::Json null_json;
  return m ? *m : null_json;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t count_committed(const std::string& journal_text) {
  std::size_t count = 0, pos = 0;
  const std::string needle = "\"type\":\"committed\"";
  while ((pos = journal_text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

/// Poll `status` until job `id` reports running (bounded at ~2 s).
void await_running(serve::Client& client, std::uint64_t id) {
  for (int poll = 0; poll < 2000; ++poll) {
    if (member(client.status(id), "state").as_string() == "running") return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "job " << id << " never reported running";
}

serve::ServeOptions quick_options() {
  serve::ServeOptions options;
  options.engine.concurrency = 2;
  options.engine.total_threads = 2;  // per-job cap 1: deterministic bits
  return options;
}

}  // namespace

// ------------------------------------------------------------- protocol

TEST(Protocol, RejectsMalformedFrames) {
  EXPECT_THROW(serve::parse_request("not json"), std::runtime_error);
  EXPECT_THROW(serve::parse_request("[1,2,3]"), std::runtime_error);
  EXPECT_THROW(serve::parse_request("{\"no_op\":1}"), std::runtime_error);
  EXPECT_THROW(serve::parse_request("{\"op\":\"fly\"}"), std::runtime_error);
  EXPECT_THROW(serve::parse_request("{\"op\":\"hello\"}"),
               std::runtime_error);  // missing tenant
  EXPECT_THROW(serve::parse_request("{\"op\":\"hello\",\"tenant\":\"\"}"),
               std::runtime_error);
  EXPECT_THROW(serve::parse_request("{\"op\":\"submit\"}"),
               std::runtime_error);  // neither input nor text
  EXPECT_THROW(
      serve::parse_request(
          "{\"op\":\"submit\",\"text\":\"x\",\"input\":{}}"),
      std::runtime_error);  // both
  EXPECT_THROW(serve::parse_request("{\"op\":\"submit\",\"text\":\"bad "
                                    "keyword zap\"}"),
               std::runtime_error);  // unparseable input text
  EXPECT_THROW(serve::parse_request("{\"op\":\"status\"}"),
               std::runtime_error);  // missing id
  EXPECT_THROW(serve::parse_request("{\"op\":\"status\",\"id\":0}"),
               std::runtime_error);
  EXPECT_THROW(serve::parse_request("{\"op\":\"result\",\"id\":-3}"),
               std::runtime_error);
}

TEST(Protocol, ParsesSubmitFromTextAndJson) {
  const serve::Request text = serve::parse_request(
      "{\"op\":\"submit\",\"name\":\"t\",\"priority\":3,"
      "\"text\":\"method hf\\nbasis sto-3g\\ngeometry bohr\\n"
      "H 0 0 0\\nH 0 0 1.4\\nend\"}");
  EXPECT_EQ(text.op, serve::Op::kSubmit);
  EXPECT_EQ(text.name, "t");
  EXPECT_EQ(text.priority, 3);
  EXPECT_EQ(text.input.molecule.size(), 2u);

  obs::Json req = obs::Json::object();
  req["op"] = "submit";
  req["input"] = engine::input_to_json(h2_input());
  const serve::Request json = serve::parse_request(req.dump());
  EXPECT_EQ(json.input.method, "hf");
  EXPECT_EQ(json.input.molecule.size(), 2u);
}

TEST(Protocol, ResponsesAndFrames) {
  obs::Json ok = serve::ok_response(serve::Op::kSubmit);
  EXPECT_TRUE(member(ok, "ok").as_bool());
  EXPECT_EQ(member(ok, "op").as_string(), "submit");
  obs::Json err = serve::error_response("nope");
  EXPECT_FALSE(member(err, "ok").as_bool());
  EXPECT_EQ(member(err, "error").as_string(), "nope");
  const std::string frame = serve::encode_frame(ok);
  EXPECT_EQ(frame.back(), '\n');
  EXPECT_EQ(frame.find('\n'), frame.size() - 1);  // one line exactly
}

// ---------------------------------------------------------- end to end

TEST(Serve, SubmitResultBitIdenticalToDirectRun) {
  serve::Server server(quick_options());
  server.start();
  ASSERT_GT(server.port(), 0);

  serve::Client client("127.0.0.1", server.port());
  obs::Json hello = client.hello("acme");
  ASSERT_TRUE(member(hello, "ok").as_bool());

  const app::Input input = h2_input();
  obs::Json submitted = client.submit("h2", input);
  ASSERT_TRUE(member(submitted, "ok").as_bool()) << submitted.dump();
  const auto id = static_cast<std::uint64_t>(member(submitted, "id").as_int());
  EXPECT_GT(id, 0u);

  obs::Json result = client.result(id, 30.0);
  ASSERT_TRUE(member(result, "ok").as_bool()) << result.dump();
  EXPECT_EQ(member(result, "state").as_string(), "done");
  const obs::Json& record = member(result, "record");
  EXPECT_EQ(member(record, "tenant").as_string(), "acme");

  // The served energy must be bit-identical to running the record's own
  // input directly through the driver.
  const app::Input as_executed =
      engine::input_from_json(member(record, "input"));
  const app::StructuredResult direct = app::run_structured(as_executed);
  const double served =
      member(member(record, "result"), "energy").as_double();
  EXPECT_EQ(energy_bits(served), energy_bits(direct.energy));

  // A duplicate submission is served from the cache.
  obs::Json dup = client.submit("h2-again", input);
  ASSERT_TRUE(member(dup, "ok").as_bool());
  const auto dup_id = static_cast<std::uint64_t>(member(dup, "id").as_int());
  obs::Json dup_result = client.result(dup_id, 30.0);
  ASSERT_TRUE(member(dup_result, "ok").as_bool());
  EXPECT_TRUE(member(member(dup_result, "record"), "cache_hit").as_bool());
  const double dup_energy =
      member(member(member(dup_result, "record"), "result"), "energy")
          .as_double();
  EXPECT_EQ(energy_bits(dup_energy), energy_bits(served));

  obs::Json status = client.status(id);
  EXPECT_EQ(member(status, "state").as_string(), "done");
  obs::Json stats = client.stats();
  ASSERT_TRUE(member(stats, "ok").as_bool());
  const obs::Json& acme =
      member(member(member(stats, "stats"), "tenants"), "acme");
  EXPECT_EQ(member(acme, "submitted").as_int(), 2);
  EXPECT_EQ(member(acme, "completed").as_int(), 2);

  server.stop();
}

TEST(Serve, RequiresHelloBeforeWork) {
  serve::Server server(quick_options());
  server.start();
  serve::Client client("127.0.0.1", server.port());
  obs::Json denied = client.submit("h2", h2_input());
  EXPECT_FALSE(member(denied, "ok").as_bool());
  EXPECT_NE(member(denied, "error").as_string().find("hello required"),
            std::string::npos);
  // stats is allowed pre-hello (monitoring doesn't need a tenant).
  EXPECT_TRUE(member(client.stats(), "ok").as_bool());
  server.stop();
}

TEST(Serve, MalformedFrameGetsErrorAndConnectionSurvives) {
  serve::Server server(quick_options());
  server.start();
  serve::Client client("127.0.0.1", server.port());
  obs::Json garbage = client.request(obs::Json("this is not a request"));
  EXPECT_FALSE(member(garbage, "ok").as_bool());
  // Same connection keeps working afterwards.
  EXPECT_TRUE(member(client.hello("acme"), "ok").as_bool());
  EXPECT_TRUE(member(client.stats(), "ok").as_bool());
  server.stop();
}

TEST(Serve, UnknownJobIdsAreErrors) {
  serve::Server server(quick_options());
  server.start();
  serve::Client client("127.0.0.1", server.port());
  client.hello("acme");
  EXPECT_FALSE(member(client.status(424242), "ok").as_bool());
  EXPECT_FALSE(member(client.result(424242, 0.5), "ok").as_bool());
  EXPECT_FALSE(member(client.cancel(424242), "ok").as_bool());
  server.stop();
}

// --------------------------------------------------- quotas and cancel

TEST(Serve, QuotaRejectReasonFormatIsPinned) {
  serve::ServeOptions options = quick_options();
  options.engine.concurrency = 1;
  options.engine.total_threads = 1;
  engine::TenantConfig acme;
  acme.id = "acme";
  acme.options.weight = 1.0;
  acme.options.max_queued = 2;
  acme.options.max_in_flight = 1;
  options.engine.tenants.push_back(acme);
  serve::Server server(options);
  server.start();
  serve::Client client("127.0.0.1", server.port());
  client.hello("acme");

  // Job 1 occupies the single in-flight slot (held by a straggler); 2
  // and 3 fill the backlog; 4 must bounce with the structured reason.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    obs::Json r =
        client.submit("q" + std::to_string(i), slow_h2_input(i * 1e-9, 0.05));
    ASSERT_TRUE(member(r, "ok").as_bool()) << r.dump();
    ids.push_back(static_cast<std::uint64_t>(member(r, "id").as_int()));
    // Jobs count as queued until a worker takes them: let job 1 start
    // before filling the backlog.
    if (i == 0) await_running(client, ids[0]);
  }
  obs::Json rejected = client.submit("q3", h2_input());
  ASSERT_FALSE(member(rejected, "ok").as_bool());
  EXPECT_EQ(member(rejected, "error").as_string(),
            "tenant quota: 'acme' queued 2/2 (in-flight 1/1)");

  // Canceling a pending job frees backlog; the canceled record is
  // terminal and visible through result.
  obs::Json canceled = client.cancel(ids[2], "changed my mind");
  ASSERT_TRUE(member(canceled, "ok").as_bool()) << canceled.dump();
  obs::Json r2 = client.result(ids[2], 10.0);
  ASSERT_TRUE(member(r2, "ok").as_bool());
  EXPECT_EQ(member(r2, "state").as_string(), "canceled");

  // The in-flight straggler is beyond cancellation.
  obs::Json too_late = client.cancel(ids[0]);
  EXPECT_FALSE(member(too_late, "ok").as_bool());
  EXPECT_NE(member(too_late, "error").as_string().find("already admitted"),
            std::string::npos);

  for (std::uint64_t id : {ids[0], ids[1]})
    EXPECT_TRUE(member(client.result(id, 60.0), "ok").as_bool());
  server.stop();
}

TEST(Serve, ResumeOverFullBacklogKeepsEveryJobAndFreshIdsAbove) {
  // A journal left by a crash: tenant acme had four uncommitted jobs,
  // more than the resumed server's backlog cap of 2 plus one worker,
  // and job 5's record cannot be resubmitted (no geometry).
  const std::string dir = make_temp_dir();
  const std::string journal = dir + "/serve.wal";
  {
    engine::Journal writer;
    writer.open(journal);
    for (std::uint64_t id = 1; id <= 5; ++id) {
      engine::Job job;
      job.id = id;
      job.name = "j" + std::to_string(id);
      job.tenant = "acme";
      job.input = slow_h2_input(static_cast<double>(id) * 1e-9, 0.02);
      if (id == 5) job.input.molecule = chem::Molecule{};
      writer.record_submitted(job);
    }
    writer.record_started(1, 1);
  }
  serve::ServeOptions options = quick_options();
  options.engine.concurrency = 1;
  options.engine.total_threads = 1;
  options.engine.journal_path = journal;
  options.engine.tenant_defaults.max_queued = 2;
  options.resume = true;
  serve::Server server(options);
  server.start();
  serve::Client client("127.0.0.1", server.port());
  client.hello("acme");

  // Every acknowledged job is resubmitted under its id, past the cap.
  for (std::uint64_t id = 1; id <= 4; ++id) {
    obs::Json r = client.result(id, 60.0);
    ASSERT_TRUE(member(r, "ok").as_bool()) << "job " << id << ": " << r.dump();
    EXPECT_EQ(member(r, "state").as_string(), "done") << "job " << id;
  }
  // Fresh ids continue above every journaled id, the refused one too.
  obs::Json fresh = client.submit("fresh", h2_input());
  ASSERT_TRUE(member(fresh, "ok").as_bool()) << fresh.dump();
  EXPECT_EQ(member(fresh, "id").as_int(), 6);
  EXPECT_TRUE(member(client.result(6, 60.0), "ok").as_bool());
  server.stop();
}

TEST(Serve, MidJobDisconnectDoesNotLoseTheJob) {
  serve::Server server(quick_options());
  server.start();
  std::uint64_t id = 0;
  {
    serve::Client client("127.0.0.1", server.port());
    client.hello("acme");
    obs::Json r = client.submit("goner", slow_h2_input(0.0, 0.02));
    ASSERT_TRUE(member(r, "ok").as_bool());
    id = static_cast<std::uint64_t>(member(r, "id").as_int());
    // Rude disconnect mid-run: no drain, no goodbye.
    client.close();
  }
  serve::Client again("127.0.0.1", server.port());
  again.hello("acme");
  obs::Json result = again.result(id, 60.0);
  ASSERT_TRUE(member(result, "ok").as_bool()) << result.dump();
  EXPECT_EQ(member(result, "state").as_string(), "done");
  server.stop();
}

// ------------------------------------------------------- fair sharing

TEST(Serve, WeightedFairShareRatioUnderSaturation) {
  serve::ServeOptions options = quick_options();
  options.engine.concurrency = 2;
  options.engine.total_threads = 2;
  options.engine.cache = false;  // every job really runs
  engine::TenantConfig heavy, light;
  heavy.id = "heavy";
  heavy.options.weight = 2.0;
  heavy.options.max_queued = 256;
  light.id = "light";
  light.options.weight = 1.0;
  light.options.max_queued = 256;
  options.engine.tenants = {heavy, light};
  serve::Server server(options);
  server.start();

  // Saturate: both tenants pre-load far more work than the two workers
  // take at once, so every dispatch is a DRR decision.
  constexpr int kJobs = 45;
  serve::Client heavy_client("127.0.0.1", server.port());
  serve::Client light_client("127.0.0.1", server.port());
  heavy_client.hello("heavy");
  light_client.hello("light");
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(member(heavy_client.submit(
                           "h" + std::to_string(i),
                           slow_h2_input(i * 1e-9, 0.004)),
                       "ok")
                    .as_bool());
    ASSERT_TRUE(member(light_client.submit(
                           "l" + std::to_string(i),
                           slow_h2_input(1e-3 + i * 1e-9, 0.004)),
                       "ok")
                    .as_bool());
  }

  // Sample mid-saturation: once ~2/3 of the total work completed, the
  // 2:1 weights must show in per-tenant completions (within 20%).
  auto completed = [&](const obs::Json& stats, const char* tenant) {
    return member(member(member(member(stats, "stats"), "tenants"), tenant),
                  "completed")
        .as_int();
  };
  obs::Json sample;
  std::int64_t heavy_done = 0, light_done = 0;
  for (int poll = 0; poll < 2000; ++poll) {
    sample = heavy_client.stats();
    heavy_done = completed(sample, "heavy");
    light_done = completed(sample, "light");
    if (heavy_done + light_done >= kJobs) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(heavy_done + light_done, kJobs) << sample.dump();
  ASSERT_GT(light_done, 0);
  const double ratio =
      static_cast<double>(heavy_done) / static_cast<double>(light_done);
  EXPECT_GT(ratio, 2.0 * 0.8) << "heavy " << heavy_done << " light "
                              << light_done;
  EXPECT_LT(ratio, 2.0 * 1.2) << "heavy " << heavy_done << " light "
                              << light_done;

  const std::vector<engine::JobRecord> records = server.stop();
  std::size_t done = 0;
  for (const auto& r : records)
    if (r.state == engine::JobState::kDone) ++done;
  EXPECT_EQ(done, static_cast<std::size_t>(2 * kJobs));
}

TEST(Serve, ConcurrentClientsRaceCleanly) {
  serve::ServeOptions options = quick_options();
  serve::Server server(options);
  server.start();
  constexpr int kThreads = 4, kPerThread = 8;
  std::atomic<int> ok_results{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client("127.0.0.1", server.port());
      client.hello(c % 2 == 0 ? "even" : "odd");
      std::vector<std::uint64_t> ids;
      for (int i = 0; i < kPerThread; ++i) {
        obs::Json r = client.submit(
            "c" + std::to_string(c) + "." + std::to_string(i),
            h2_input((c * kPerThread + i) * 1e-9));
        if (member(r, "ok").as_bool())
          ids.push_back(static_cast<std::uint64_t>(member(r, "id").as_int()));
      }
      for (std::uint64_t id : ids) {
        obs::Json r = client.result(id, 120.0);
        if (member(r, "ok").as_bool() &&
            member(r, "state").as_string() == "done")
          ok_results.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_results.load(), kThreads * kPerThread);
  server.stop();
}

// ----------------------------------------------------- drain and crash

TEST(Serve, DrainOpFinishesWorkAndJournalsCleanShutdown) {
  const std::string dir = make_temp_dir();
  const std::string journal = dir + "/serve.wal";
  serve::ServeOptions options = quick_options();
  options.engine.journal_path = journal;
  serve::Server server(options);
  server.start();
  serve::Client client("127.0.0.1", server.port());
  client.hello("acme");
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    obs::Json r =
        client.submit("d" + std::to_string(i), h2_input(i * 1e-9));
    ASSERT_TRUE(member(r, "ok").as_bool());
    ids.push_back(static_cast<std::uint64_t>(member(r, "id").as_int()));
  }
  obs::Json drained = client.drain("maintenance window");
  ASSERT_TRUE(member(drained, "ok").as_bool()) << drained.dump();
  EXPECT_TRUE(server.stop_requested());
  // Post-drain submissions bounce.
  obs::Json late = client.submit("late", h2_input());
  EXPECT_FALSE(member(late, "ok").as_bool());

  const std::vector<engine::JobRecord> records = server.stop();
  std::size_t done = 0;
  for (const auto& r : records)
    if (r.state == engine::JobState::kDone) ++done;
  EXPECT_EQ(done, ids.size());

  const engine::JournalReplay replay = engine::Journal::replay(journal);
  EXPECT_TRUE(replay.clean_shutdown);
  EXPECT_EQ(replay.shutdown_reason, "maintenance window");
  for (std::uint64_t id : ids) {
    const engine::ReplayedJob* job = replay.find(id);
    ASSERT_NE(job, nullptr);
    EXPECT_TRUE(job->committed);
  }
}

namespace {

volatile std::sig_atomic_t g_child_term = 0;
void child_term_handler(int) { g_child_term = 1; }

/// Fork a server process. The child reports its bound port through a
/// pipe, installs a SIGTERM handler (the same poll-the-flag pattern the
/// mthfx_serve binary uses), then parks until a drain request or the
/// signal stops it; exit code 0 unless a job actually failed. Forked
/// before the parent makes any threads, as in test_durability's crash
/// drills.
pid_t fork_server(const serve::ServeOptions& options, int* port_out) {
  int fds[2];
  EXPECT_EQ(pipe(fds), 0);
  const pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    {
      std::signal(SIGTERM, child_term_handler);
      serve::Server server(options);
      server.start();
      const std::string port = std::to_string(server.port()) + "\n";
      (void)!::write(fds[1], port.data(), port.size());
      ::close(fds[1]);
      while (g_child_term == 0 && !server.stop_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      server.request_stop(g_child_term != 0 ? "sigterm" : "drain");
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

}  // namespace

TEST(ServeCrash, SigtermDrainsGracefully) {
  const std::string dir = make_temp_dir();
  serve::ServeOptions options = quick_options();
  options.engine.journal_path = dir + "/serve.wal";

  int port = 0;
  const pid_t pid = fork_server(options, &port);
  ASSERT_GT(port, 0);

  std::uint64_t id = 0;
  {
    serve::Client client("127.0.0.1", port);
    client.hello("acme");
    obs::Json r = client.submit("graceful", slow_h2_input(0.0, 0.01));
    ASSERT_TRUE(member(r, "ok").as_bool());
    id = static_cast<std::uint64_t>(member(r, "id").as_int());
    // Real SIGTERM while the job may still be running: the server must
    // finish it, journal a clean shutdown, and exit 0.
    ASSERT_EQ(kill(pid, SIGTERM), 0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const engine::JournalReplay replay =
      engine::Journal::replay(options.engine.journal_path);
  EXPECT_TRUE(replay.clean_shutdown);
  EXPECT_EQ(replay.shutdown_reason, "sigterm");
  const engine::ReplayedJob* job = replay.find(id);
  ASSERT_NE(job, nullptr);
  EXPECT_TRUE(job->committed);
}

TEST(ServeCrash, SigkillThenResumeServesEveryClient) {
  const std::string dir = make_temp_dir();
  serve::ServeOptions options = quick_options();
  options.engine.concurrency = 1;
  options.engine.total_threads = 1;
  options.engine.cache = false;  // force real work: kill lands mid-run
  options.engine.journal_path = dir + "/serve.wal";
  options.engine.checkpoint_dir = dir;

  int port = 0;
  const pid_t gen1 = fork_server(options, &port);
  ASSERT_GT(port, 0);

  // A quick job that commits, then stragglers that won't all finish
  // before the kill.
  std::vector<std::uint64_t> ids;
  {
    serve::Client client("127.0.0.1", port);
    client.hello("acme");
    obs::Json quick = client.submit("quick", h2_input());
    ASSERT_TRUE(member(quick, "ok").as_bool());
    ids.push_back(static_cast<std::uint64_t>(member(quick, "id").as_int()));
    for (int i = 0; i < 4; ++i) {
      obs::Json r = client.submit("straggler" + std::to_string(i),
                                  slow_h2_input((i + 1) * 1e-9, 0.05));
      ASSERT_TRUE(member(r, "ok").as_bool());
      ids.push_back(static_cast<std::uint64_t>(member(r, "id").as_int()));
    }
    // Wait for at least one committed record, then pull the plug.
    for (int poll = 0; poll < 2000; ++poll) {
      if (count_committed(read_file(options.engine.journal_path)) >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_GE(count_committed(read_file(options.engine.journal_path)), 1u);
  ASSERT_EQ(kill(gen1, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(gen1, &status, 0), gen1);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Generation 2: resume from the journal on a fresh port. Clients
  // reconnect and poll their original ids.
  serve::ServeOptions resumed = options;
  resumed.resume = true;
  int port2 = 0;
  const pid_t gen2 = fork_server(resumed, &port2);
  ASSERT_GT(port2, 0);
  {
    serve::Client client("127.0.0.1", port2);
    client.hello("acme");
    std::size_t replayed = 0;
    for (std::uint64_t id : ids) {
      obs::Json r = client.result(id, 120.0);
      ASSERT_TRUE(member(r, "ok").as_bool()) << r.dump();
      EXPECT_EQ(member(r, "state").as_string(), "done");
      const obs::Json& record = member(r, "record");
      if (member(record, "replayed").as_bool()) ++replayed;
      // Bit-identity: the served energy equals a direct driver run of
      // the record's own input.
      const app::Input as_executed =
          engine::input_from_json(member(record, "input"));
      const app::StructuredResult direct = app::run_structured(as_executed);
      const double served =
          member(member(record, "result"), "energy").as_double();
      EXPECT_EQ(energy_bits(served), energy_bits(direct.energy))
          << "job " << id;
    }
    EXPECT_GE(replayed, 1u) << "no job was served from the journal";
    client.drain("drill complete");
  }
  ASSERT_EQ(waitpid(gen2, &status, 0), gen2);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  const engine::JournalReplay replay =
      engine::Journal::replay(options.engine.journal_path);
  EXPECT_TRUE(replay.clean_shutdown);
  for (std::uint64_t id : ids) {
    const engine::ReplayedJob* job = replay.find(id);
    ASSERT_NE(job, nullptr);
    EXPECT_TRUE(job->committed) << "job " << id;
  }
}
