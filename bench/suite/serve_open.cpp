// serve_open — the screening service under open-loop load: an in-process
// serve::Server (2 workers, 1 HFX thread per job, write-ahead journal and
// disk result store in a scratch directory) fed seeded Poisson arrivals
// from one submit connection while three result connections collect. Jobs
// are HF/STO-3G H2, water or OH- in equal shares with jittered geometry;
// every 4th job repeats the previous one, so duplicates read the store
// while unique jobs write the journal and the store. Little of the time
// is HFX.
//
// Latency runs from a job's scheduled send time to the arrival of its
// result, so a stalled generator or server delays every later job too.
// On a 4-core host this service completes 100-110 jobs/s closed loop
// (4 connections, same mix). At 120 jobs/s it saturates: latencies grow
// to seconds, and once 256 jobs wait the queue refuses more. The shared
// host also has periods in which everything runs 1.3-1.7x slower; in
// one, a run at 45 jobs/s saturated too. 30 jobs/s stays below a
// third of capacity, so the median job does not queue even then.

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "app/driver.hpp"
#include "engine/journal.hpp"
#include "engine/result_store.hpp"
#include "hfx/fock_builder.hpp"
#include "scf/rhf.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "suite.hpp"
#include "testing/rng.hpp"
#include "workload/geometries.hpp"

namespace mthfx::bench_suite {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kJobsPerSecond = 30.0;
constexpr std::size_t kResultConnections = 3;
constexpr std::size_t kBitIdentitySamples = 8;
const char* const kSpecies[] = {"h2", "water", "oh-"};
constexpr std::size_t kH2 = 0, kWater = 1, kHydroxide = 2;

double ms_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

app::Input job_input(std::size_t species, testing::Rng& rng) {
  app::Input input;
  input.method = "hf";
  input.basis = "sto-3g";
  input.eps_schwarz = 1e-8;
  input.num_threads = 1;
  const chem::Molecule base = workload::by_name(kSpecies[species]);
  input.charge = base.charge();
  input.molecule.set_charge(base.charge());
  for (const chem::Atom& atom : base.atoms()) {
    chem::Vec3 p = atom.pos;
    for (std::size_t d = 0; d < 3; ++d) p[d] += rng.uniform(-0.02, 0.02);
    input.molecule.add_atom(atom.z, p);
  }
  return input;
}

struct Job {
  std::size_t species = 0;
  bool duplicate = false;
  double due_s = 0.0;  ///< scheduled send time from the start of the load
  app::Input input;
};

/// Seeded open-loop schedule: arrivals of a Poisson process conditioned
/// on its count (sorted uniform times). Every 4 jobs hold one H2, one
/// water and one OH- job in seeded order, and the 4th repeats the job
/// before it, so every seed offers the same load.
std::vector<Job> make_jobs(std::uint64_t seed, double window_s) {
  testing::Rng rng(seed);
  const auto count = static_cast<std::size_t>(kJobsPerSecond * window_s);
  std::vector<double> due(count);
  for (double& t : due) t = rng.uniform(0.0, window_s);
  std::sort(due.begin(), due.end());
  std::vector<Job> jobs(count);
  std::size_t order[3] = {kH2, kWater, kHydroxide};
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 4 == 3) {
      jobs[i] = jobs[i - 1];
      jobs[i].duplicate = true;
    } else {
      if (i % 4 == 0)
        for (std::size_t k = 3; k > 1; --k)
          std::swap(order[k - 1], order[rng.index(k)]);
      jobs[i].species = order[i % 4];
      jobs[i].input = job_input(jobs[i].species, rng);
    }
    jobs[i].due_s = due[i];
  }
  return jobs;
}

/// What one job's round trip measured.
struct Sample {
  bool ok = false;
  double lag_ms = 0, ack_ms = 0, latency_ms = 0, wait_ms = 0, run_ms = 0;
  bool cache_hit = false;
  double scf_iterations = 0;
  obs::Json record;
};

/// One running service: server, four connections and its scratch dir.
struct Service {
  std::filesystem::path dir;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Client> submitter;
  std::vector<std::unique_ptr<serve::Client>> collectors;

  Service(const std::filesystem::path& root, int generation) {
    dir = root / ("serve-" + std::to_string(::getpid()) + "-" +
                  std::to_string(generation));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    serve::ServeOptions options;
    options.engine.concurrency = 2;
    options.engine.total_threads = 2;  // one HFX thread per job
    options.engine.cache = true;
    options.engine.journal_path = (dir / "serve.wal").string();
    options.engine.store_dir = (dir / "store").string();
    server = std::make_unique<serve::Server>(options);
    server->start();
    submitter = connect();
    for (std::size_t i = 0; i < kResultConnections; ++i)
      collectors.push_back(connect());
  }
  ~Service() {
    submitter.reset();
    collectors.clear();
    server->stop();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::unique_ptr<serve::Client> connect() const {
    auto client = std::make_unique<serve::Client>("127.0.0.1", server->port());
    client->hello("bench");
    return client;
  }
};

const obs::Json& member(const obs::Json& j, const std::string& key) {
  static const obs::Json null_json;
  const obs::Json* found = j.find(key);
  return found ? *found : null_json;
}

/// Drives the schedule through one service; fills one Sample per job.
std::vector<Sample> run_load(Service& service, const std::vector<Job>& jobs,
                             double trace_from_s, LayerClock* clock) {
  std::vector<Sample> samples(jobs.size());
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::uint64_t>> pending;  // job, id
  bool generator_done = false;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](const Job& job) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(job.due_s));
  };
  const auto traced = [&](std::size_t i) {
    return clock && jobs[i].due_s >= trace_from_s;
  };
  const auto call = [&](std::size_t i, const char* name,
                        const std::function<void()>& fn) {
    timed(traced(i) ? clock : nullptr, name, fn);
  };

  std::vector<std::thread> collectors;
  for (std::size_t c = 0; c < kResultConnections; ++c) {
    collectors.emplace_back([&, c] {
      serve::Client& client = *service.collectors[c];
      while (true) {
        std::pair<std::size_t, std::uint64_t> next;
        {
          std::unique_lock<std::mutex> lock(mutex);
          cv.wait(lock, [&] { return !pending.empty() || generator_done; });
          if (pending.empty()) return;
          next = pending.front();
          pending.pop_front();
        }
        const std::size_t i = next.first;
        obs::Json r;
        try {
          call(i, "serve.result",
               [&] { r = client.result(next.second, 60.0); });
        } catch (const std::exception&) {
          continue;  // broken connection: the sample stays !ok
        }
        Sample& s = samples[i];
        s.latency_ms = ms_since(due_at(jobs[i]), Clock::now());
        s.ok = member(r, "ok").as_bool() &&
               member(r, "state").as_string() == "done";
        const obs::Json& record = member(r, "record");
        s.cache_hit = member(record, "cache_hit").as_bool();
        s.wait_ms = 1e3 * member(record, "wait_seconds").as_double();
        s.run_ms = 1e3 * member(record, "run_seconds").as_double();
        s.scf_iterations = static_cast<double>(
            member(member(record, "result"), "scf_iterations").as_int());
        s.record = record;
      }
    });
  }

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::this_thread::sleep_until(due_at(jobs[i]));
    const Clock::time_point sent = Clock::now();
    obs::Json r;
    try {
      call(i, "serve.submit", [&] {
        r = service.submitter->submit("j" + std::to_string(i), jobs[i].input);
      });
    } catch (const std::exception&) {
      // Broken connection: the sample stays !ok.
    }
    samples[i].lag_ms = ms_since(due_at(jobs[i]), sent);
    samples[i].ack_ms = ms_since(sent, Clock::now());
    if (!member(r, "ok").as_bool()) continue;  // refused: stays !ok
    std::lock_guard<std::mutex> lock(mutex);
    pending.emplace_back(i,
                         static_cast<std::uint64_t>(member(r, "id").as_int()));
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    generator_done = true;
  }
  cv.notify_all();
  for (auto& t : collectors) t.join();
  return samples;
}

/// Warm-up jobs: one of each species, waited for, before timing.
void warm_up(Service& service, std::uint64_t seed) {
  testing::Rng rng(seed);
  for (std::size_t species = 0; species < 3; ++species) {
    const obs::Json r = service.submitter->submit(
        "warm" + std::to_string(species), job_input(species, rng));
    service.collectors[0]->result(
        static_cast<std::uint64_t>(member(r, "id").as_int()), 60.0);
  }
}

constexpr std::size_t kAnySpecies = 3;

/// `field` of the completed jobs due in [from_s, to_s): only those that
/// ran (no store hit) with `executed_only`, only one species unless
/// `species` is kAnySpecies.
std::vector<double> pick(const std::vector<Sample>& samples,
                         const std::vector<Job>& jobs, double from_s,
                         double to_s, double Sample::*field,
                         bool executed_only = false,
                         std::size_t species = kAnySpecies) {
  std::vector<double> out;
  for (std::size_t i = 0; i < samples.size(); ++i)
    if (samples[i].ok && jobs[i].due_s >= from_s && jobs[i].due_s < to_s &&
        !(executed_only && samples[i].cache_hit) &&
        (species == kAnySpecies || jobs[i].species == species))
      out.push_back(samples[i].*field);
  return out;
}

}  // namespace

Outcome run_serve_open(const RunConfig& config) {
  Outcome out;
  const std::filesystem::path scratch = config.scratch;
  int generation = 0;
  const auto set_up = [&] {
    auto made = std::make_unique<Service>(scratch, generation++);
    warm_up(*made, config.seed ^ 0x5eed);
    return made;
  };
  std::unique_ptr<Service> service = set_up();

  // Jobs due in the first warmup_s are served but not measured.
  const double end_s = config.warmup_s + config.seconds;
  const std::vector<Job> jobs = make_jobs(config.seed, end_s);
  const double trace_from_s =
      config.warmup_s + (config.trace ? config.seconds / 2 : 0.0);
  LayerClock clock;
  const engine::Journal& server_journal =
      service->server->scheduler().journal();
  const std::uint64_t journal_before = server_journal.appended();
  const std::vector<Sample> samples =
      run_load(*service, jobs, trace_from_s, config.trace ? &clock : nullptr);
  const auto journal_records =
      static_cast<double>(server_journal.appended() - journal_before);

  out.attempted = jobs.size();
  std::size_t done = 0;
  for (const Sample& s : samples) {
    if (s.ok) ++done;
    else ++out.failed;
  }

  // Replays of the calls each layer makes per job, timed as spans.
  const int calls = config.smoke ? 3 : 20;
  const auto replay = [&](const std::string& name,
                          const std::function<void()>& call) {
    for (int i = 0; i < calls; ++i) clock.span(name, call);
    return clock.median(name);
  };
  double rtt = 0.0;
  if (config.trace)
    rtt = replay("serve.stats", [&] { service->submitter->stats(); });
  service.reset();  // graceful stop, before the CPU-bound checks below

  // Served energies must be bit-identical to a direct run of the input
  // the engine executed (one thread per job keeps the sum order fixed).
  std::vector<std::size_t> executed;
  for (std::size_t i = 0; i < samples.size(); ++i)
    if (samples[i].ok && !samples[i].cache_hit) executed.push_back(i);
  const std::size_t stride =
      std::max<std::size_t>(1, executed.size() / kBitIdentitySamples);
  std::size_t verified = 0, mismatched = 0;
  for (std::size_t k = 0; k < executed.size() && verified + mismatched <
                                                     kBitIdentitySamples;
       k += stride) {
    const obs::Json& record = samples[executed[k]].record;
    const double served =
        member(member(record, "result"), "energy").as_double();
    const app::StructuredResult direct =
        app::run_structured(engine::input_from_json(member(record, "input")));
    if (std::bit_cast<std::uint64_t>(served) ==
        std::bit_cast<std::uint64_t>(direct.energy))
      ++verified;
    else
      ++mismatched;
  }
  obs::Json identity = obs::Json::object();
  identity["verified"] = verified;
  identity["mismatched"] = mismatched;
  out.check("served_bit_identical", verified > 0 && mismatched == 0,
            std::move(identity));
  out.detail["jobs_done"] = done;

  const std::vector<double> latency =
      pick(samples, jobs, trace_from_s, end_s, &Sample::latency_ms);
  const auto species_p50 = [&](std::size_t species, double from_s,
                               double to_s) {
    return median(pick(samples, jobs, from_s, to_s, &Sample::latency_ms,
                       false, species));
  };
  // The end-to-end latency: the mean over the three species of each
  // species' median. Job latencies form one cluster per species, and the
  // median of all jobs would sit wherever the share of fast jobs (H2 and
  // store hits) puts it.
  const auto typical_latency_ms = [&](double from_s, double to_s) {
    return (species_p50(kH2, from_s, to_s) +
            species_p50(kWater, from_s, to_s) +
            species_p50(kHydroxide, from_s, to_s)) / 3.0;
  };
  if (!config.trace) {
    out.metric("time_to_solution_s",
               1e-3 * typical_latency_ms(trace_from_s, end_s));
    out.record_ops(latency);
    out.metric("setup_s", median_setup_seconds(set_up));
    return out;
  }

  // Per-layer view of the traced half: each job's latency splits into
  // generator lag, submit ack, queue wait and run time; the rest is
  // result delivery and client-side waiting.
  const auto lag = pick(samples, jobs, trace_from_s, end_s, &Sample::lag_ms);
  const auto ack = pick(samples, jobs, trace_from_s, end_s, &Sample::ack_ms);
  const auto wait = pick(samples, jobs, trace_from_s, end_s, &Sample::wait_ms);
  const auto run = pick(samples, jobs, trace_from_s, end_s, &Sample::run_ms);
  const auto iterations = pick(samples, jobs, trace_from_s, end_s,
                               &Sample::scf_iterations, true);
  const double e2e_s = 1e-3 * sum(latency);
  const double layers_s = 1e-3 * (sum(lag) + sum(ack) + sum(wait) + sum(run));
  double duplicates = 0, hits = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (!samples[i].ok || jobs[i].due_s < trace_from_s) continue;
    duplicates += jobs[i].duplicate ? 1 : 0;
    hits += samples[i].cache_hit ? 1 : 0;
  }

  const std::filesystem::path dir =
      scratch / ("replay-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  testing::Rng rng(config.seed ^ 0xabc);
  const app::Input water = job_input(kWater, rng);
  const app::StructuredResult water_result = app::run_structured(water);
  engine::JobRecord record;
  record.input = water;
  record.result = water_result;
  record.state = engine::JobState::kDone;
  const obs::Json payload = engine::job_record_to_json(record);
  engine::Journal journal;
  journal.open((dir / "replay.wal").string());
  const double append_s =
      replay("engine.journal_append", [&] { journal.append(payload); });
  engine::ResultStore store;
  store.attach_disk((dir / "store").string());
  std::uint64_t key = 1;
  const double insert_s =
      replay("engine.store_insert", [&] { store.insert(key++, water_result); });
  const double lookup_s =
      replay("engine.store_lookup", [&] { store.lookup(1); });
  std::vector<double> job_ms(3);
  for (std::size_t species = 0; species < 3; ++species) {
    const app::Input input = job_input(species, rng);
    job_ms[species] = 1e3 * replay(std::string("app.job.") + kSpecies[species],
                                   [&] { app::run_structured(input); });
  }
  const chem::BasisSet basis =
      chem::BasisSet::build(water.molecule, water.basis);
  hfx::HfxOptions hfx;
  hfx.num_threads = 1;
  hfx.eps_schwarz = water.eps_schwarz;
  const hfx::FockBuilder builder(basis, hfx);
  scf::ScfOptions scf_options;
  scf_options.hfx = hfx;
  const linalg::Matrix p = scf::rhf(water.molecule, basis, scf_options).density;
  const double small_build_s =
      replay("hfx.small_build", [&] { builder.coulomb_exchange(p); });
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);

  out.metric("serve.latency_p50_ms", median(latency));
  out.metric("serve.latency_mean_ms", mean(latency));
  out.metric("serve.latency_h2_p50_ms", species_p50(kH2, trace_from_s, end_s));
  out.metric("serve.latency_water_p50_ms",
             species_p50(kWater, trace_from_s, end_s));
  out.metric("serve.latency_hydroxide_p50_ms",
             species_p50(kHydroxide, trace_from_s, end_s));
  out.metric("serve.latency_p90_ms", quantile(latency, 0.90));
  out.metric("serve.latency_p99_ms", quantile(latency, 0.99));
  out.metric("serve.submit_ack_p50_ms", quantile(ack, 0.5));
  out.metric("serve.submit_ack_p99_ms", quantile(ack, 0.99));
  out.metric("serve.protocol_rtt_ms", 1e3 * rtt);
  out.metric("serve.generator_lag_p99_ms", quantile(lag, 0.99));
  out.metric("engine.queue_wait_p50_ms", quantile(wait, 0.5));
  out.metric("engine.queue_wait_p99_ms", quantile(wait, 0.99));
  out.metric("engine.run_p50_ms", quantile(run, 0.5));
  out.metric("engine.run_p99_ms", quantile(run, 0.99));
  out.metric("engine.store_hit_frac", duplicates > 0 ? hits / duplicates : 0.0);
  out.metric("engine.journal_records_per_job",
             done > 0 ? journal_records / static_cast<double>(done) : 0.0);
  out.metric("engine.journal_append_ms", 1e3 * append_s);
  out.metric("engine.store_insert_ms", 1e3 * insert_s);
  out.metric("engine.store_lookup_ms", 1e3 * lookup_s);
  out.metric("app.job_h2_ms", job_ms[0]);
  out.metric("app.job_water_ms", job_ms[1]);
  out.metric("app.job_hydroxide_ms", job_ms[2]);
  out.metric("hfx.small_build_ms", 1e3 * small_build_s);
  out.metric("scf.iterations", sum(iterations));
  out.metric("scf.solves", static_cast<double>(iterations.size()));
  out.metric("e2e_traced_s", e2e_s);
  out.metric("unattributed_s", e2e_s - layers_s);
  out.metric("unattributed_frac", (e2e_s - layers_s) / e2e_s);
  out.metric("trace_overhead_frac",
             typical_latency_ms(trace_from_s, end_s) /
                     typical_latency_ms(config.warmup_s, trace_from_s) -
                 1.0);
  out.spans = clock.to_json();
  return out;
}

}  // namespace mthfx::bench_suite
