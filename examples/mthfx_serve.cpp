// mthfx_serve — long-lived multi-tenant screening service: a TCP
// front-end (NDJSON line protocol, docs/engine.md "Service") over the
// multi-job execution engine with per-tenant fair-share scheduling.
//
//   ./build/examples/mthfx_serve --port=7777
//   ./build/examples/mthfx_serve --port=0 --port-file=port.txt \
//       --journal=serve.wal --store=store --checkpoints=ckpt \
//       --tenant=acme:2:64:8 --tenant=beta:1
//   ./build/examples/mthfx_serve --journal=serve.wal --resume
//
// --tenant=id:weight[:max_queued[:max_in_flight]] configures one
// tenant's fair-share weight and quotas; unknown tenants that connect
// get --default-weight/--default-max-queued/--default-max-in-flight.
// max_queued caps a tenant's backlog of jobs not yet dispatched to a
// worker; max_in_flight caps its dispatched, unfinished jobs.
// --port=0 binds an ephemeral port; --port-file writes the bound port
// (single line) for whoever launched us.
//
// Shutdown: SIGINT/SIGTERM — or a client `drain` request — refuses new
// submissions, runs every accepted job to completion, appends a clean
// `shutdown` journal record, and exits 0 unless a job actually failed.
// A SIGKILLed server restarted with --resume serves committed jobs from
// the journal (bit-identical energies) and restarts the rest under
// their original ids.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "parse_number.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;
void handle_signal(int sig) { g_signal = sig; }

// id:weight[:max_queued[:max_in_flight]]
bool parse_tenant_spec(const std::string& spec,
                       mthfx::engine::TenantConfig* out) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 2 || parts.size() > 4 || parts[0].empty()) return false;
  out->id = parts[0];
  if (!parse_number(parts[1], out->options.weight) ||
      (parts.size() > 2 && !parse_number(parts[2], out->options.max_queued)) ||
      (parts.size() > 3 && !parse_number(parts[3], out->options.max_in_flight)))
    return false;
  return out->options.weight > 0.0 && out->options.max_queued > 0;
}

}  // namespace

int main(int argc, char** argv) {
  mthfx::serve::ServeOptions options;
  options.engine.tenant_defaults.max_queued = 64;
  options.engine.cache = true;
  std::string port_file;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    const char* v;
    bool ok = true;
    if ((v = value("--port="))) {
      ok = parse_number(v, options.port);
    } else if ((v = value("--host="))) {
      options.host = v;
    } else if ((v = value("--port-file="))) {
      port_file = v;
    } else if ((v = value("--concurrency="))) {
      ok = parse_number(v, options.engine.concurrency);
    } else if ((v = value("--journal="))) {
      options.engine.journal_path = v;
    } else if ((v = value("--store="))) {
      options.engine.store_dir = v;
    } else if ((v = value("--checkpoints="))) {
      options.engine.checkpoint_dir = v;
    } else if ((v = value("--deadline="))) {
      ok = parse_number(v, options.engine.default_deadline_seconds);
    } else if ((v = value("--default-weight="))) {
      ok = parse_number(v, options.engine.tenant_defaults.weight);
    } else if ((v = value("--default-max-queued="))) {
      ok = parse_number(v, options.engine.tenant_defaults.max_queued);
    } else if ((v = value("--default-max-in-flight="))) {
      ok = parse_number(v, options.engine.tenant_defaults.max_in_flight);
    } else if ((v = value("--tenant="))) {
      mthfx::engine::TenantConfig tenant;
      if (!parse_tenant_spec(v, &tenant)) {
        std::fprintf(stderr, "error: bad --tenant spec '%s'\n", v);
        return 2;
      }
      options.engine.tenants.push_back(std::move(tenant));
    } else if (std::strcmp(arg, "--resume") == 0) {
      options.resume = true;
    } else if (std::strcmp(arg, "--no-hello") == 0) {
      options.require_hello = false;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(
          stderr,
          "usage: %s [--port=N] [--host=IP] [--port-file=path]\n"
          "  [--concurrency=N] [--journal=file.wal] [--resume]\n"
          "  [--store=dir] [--checkpoints=dir] [--deadline=s]\n"
          "  [--tenant=id:weight[:max_queued[:max_in_flight]]]...\n"
          "  [--default-weight=W] [--default-max-queued=N]\n"
          "  [--default-max-in-flight=N] [--no-hello]\n"
          "max_queued caps each tenant's backlog of jobs not yet on a\n"
          "worker (default 64); protocol: see docs/engine.md (Service)\n",
          argv[0]);
      return 2;
    }
  }
  if (options.resume && options.engine.journal_path.empty()) {
    std::fprintf(stderr, "error: --resume needs --journal=\n");
    return 2;
  }

  try {
    using namespace mthfx;
    serve::Server server(options);
    server.start();
    std::printf("mthfx_serve: listening on %s:%d (concurrency %zu, "
                "max queued %zu per tenant%s%s)\n",
                options.host.c_str(), server.port(),
                options.engine.concurrency,
                options.engine.tenant_defaults.max_queued,
                options.engine.journal_path.empty() ? "" : ", journaled",
                options.resume ? ", resumed" : "");
    const auto replayed =
        server.scheduler().registry().counter_total("engine.jobs_replayed");
    if (replayed > 0)
      std::printf("[resume] %llu job(s) served from the journal\n",
                  static_cast<unsigned long long>(replayed));
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << "\n";
    }
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    // Park until a signal lands or a client asked to drain. Polling
    // (rather than a pure cv wait) keeps the signal path handler-only.
    while (g_signal == 0 && !server.stop_requested())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::string reason =
        g_signal != 0 ? "signal " + std::to_string(g_signal) : "drain";
    server.request_stop(reason);
    std::printf("mthfx_serve: %s — draining\n", reason.c_str());

    const std::vector<engine::JobRecord> records = server.stop();
    std::size_t done = 0, failed = 0, rejected = 0, canceled = 0;
    for (const auto& r : records) {
      switch (r.state) {
        case engine::JobState::kDone: ++done; break;
        case engine::JobState::kFailed: ++failed; break;
        case engine::JobState::kRejected: ++rejected; break;
        case engine::JobState::kCanceled: ++canceled; break;
        default: break;
      }
    }
    std::printf(
        "mthfx_serve: drained — %zu done, %zu failed, %zu rejected, "
        "%zu canceled; cache %llu hits / %llu misses\n",
        done, failed, rejected, canceled,
        static_cast<unsigned long long>(server.scheduler().store().hits()),
        static_cast<unsigned long long>(server.scheduler().store().misses()));
    for (const auto& [tenant, stats] : server.scheduler().queue().stats())
      std::printf(
          "  tenant %-12s weight %.2g: %llu submitted, %llu completed, "
          "%llu failed, %llu rejected, %llu shed, %llu canceled\n",
          tenant.c_str(), stats.options.weight,
          static_cast<unsigned long long>(stats.submitted),
          static_cast<unsigned long long>(stats.completed),
          static_cast<unsigned long long>(stats.failed),
          static_cast<unsigned long long>(stats.rejected),
          static_cast<unsigned long long>(stats.shed),
          static_cast<unsigned long long>(stats.canceled));
    // Rejections and client cancels are the admission system working as
    // designed; only a job that ran and failed is a service failure.
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
