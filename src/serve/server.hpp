#pragma once

// Long-lived multi-tenant screening service: a TCP front-end speaking
// the NDJSON line protocol (serve/protocol.hpp) in front of one
// JobScheduler. Each connection submits under its `hello` tenant into
// the scheduler's per-tenant JobQueue, which does admission, shedding
// and fair-share dispatch for the service exactly as for a campaign.
// One accept thread, one thread per connection, strictly
// request/response per connection. `status`, `result` and `stats` read
// the scheduler's own job lookup (JobScheduler::status/wait), so the
// server keeps no job table.
//
// Durability: JobScheduler::submit journals every accepted submission,
// so a SIGKILLed server restarted with `resume = true` runs
// JobScheduler::resume: committed records are adopted (bit-identical
// energies, zero recomputed SCF work) and the rest resubmitted under
// their original ids — reconnecting clients keep polling the same ids.
// A graceful stop drains in-flight work and appends a clean `shutdown`
// journal record.

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/scheduler.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"

namespace mthfx::serve {

struct ServeOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral (read the bound port from port())
  /// Reject submit/status/result/cancel until the connection sent a
  /// `hello`; stats and drain are always allowed.
  bool require_hello = true;
  /// Engine configuration, tenant quotas and weights included
  /// (`tenant_defaults`, `tenants`).
  engine::EngineOptions engine;
  /// Run JobScheduler::resume on start(): adopt committed records of
  /// engine.journal_path, resubmit the rest under their original ids.
  bool resume = false;
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Start workers, replay the journal when resuming, bind + listen,
  /// and launch the accept thread. Throws std::runtime_error when the
  /// socket cannot be bound.
  void start();

  int port() const { return port_; }

  /// Ask for a graceful stop (signal handler path, or the drain op).
  /// Returns immediately; stop() does the work.
  void request_stop(const std::string& reason);
  bool stop_requested() const { return stop_flag_.load(); }

  /// Graceful shutdown: refuse new submissions, run every accepted job
  /// to completion, journal a clean `shutdown` record, close the
  /// listener and all connections, join all threads. Idempotent;
  /// returns the full record set (as JobScheduler::drain).
  std::vector<engine::JobRecord> stop();

  engine::JobScheduler& scheduler() { return scheduler_; }
  obs::Json stats_json();

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  void accept_loop();
  void handle_connection(Connection* conn);
  obs::Json handle_request(const Request& request, std::string& conn_tenant);
  obs::Json handle_submit(const Request& request,
                          const std::string& conn_tenant);
  obs::Json handle_result(const Request& request);

  ServeOptions options_;
  engine::JobScheduler scheduler_;

  // Atomic: stop() closes and clears the fd while accept_loop() reads
  // it into ::accept on another thread.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;
  std::mutex conn_mutex_;
  std::list<Connection> connections_;  ///< stable addresses for threads
  bool accepting_ = false;

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_flag_{false};
  std::mutex stop_mutex_;
  std::string stop_reason_;
  bool stopped_ = false;
  std::vector<engine::JobRecord> records_;
};

}  // namespace mthfx::serve
