#pragma once

// Long-lived multi-tenant screening service: a TCP front-end speaking
// the NDJSON line protocol (serve/protocol.hpp) in front of one
// JobScheduler. Each connection submits under its `hello` tenant into
// the scheduler's per-tenant JobQueue, which does admission, shedding
// and fair-share dispatch for the service exactly as for a campaign.
// One accept thread, one thread per connection, strictly
// request/response per connection; results are delivered by a blocking
// `result` op against a server-side job table that the scheduler's
// on_record/on_started hooks keep current.
//
// Durability: JobScheduler::submit journals every accepted submission,
// so a SIGKILLed server restarted with `resume = true` adopts committed
// records (bit-identical energies, zero recomputed SCF work) and
// resubmits the rest under their original ids — reconnecting clients
// keep polling the same ids. A graceful stop drains in-flight work and
// appends a clean `shutdown` journal record.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
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
  /// (`tenant_defaults`, `tenants`); `on_record`/`on_started` are owned
  /// by the server.
  engine::EngineOptions engine;
  /// Replay engine.journal_path on start(): adopt committed records,
  /// resubmit the rest under their original ids.
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
  /// Returns immediately; wait_for_stop()/stop() do the work.
  void request_stop(const std::string& reason);
  bool stop_requested() const { return stop_flag_.load(); }
  /// Block until request_stop is called (the serving thread parks here).
  void wait_for_stop();

  /// Graceful shutdown: refuse new submissions, run every accepted job
  /// to completion, journal a clean `shutdown` record, close the
  /// listener and all connections, join all threads. Idempotent;
  /// returns the full record set (as JobScheduler::drain).
  std::vector<engine::JobRecord> stop();

  engine::JobScheduler& scheduler() { return scheduler_; }
  std::size_t replayed() const { return replayed_; }
  obs::Json stats_json();

 private:
  struct JobEntry {
    std::string state = "queued";
    bool terminal = false;
    obs::Json record;  ///< full job_record_to_json once terminal
  };
  struct Connection {
    int fd = -1;
    std::thread thread;
  };

  engine::EngineOptions engine_options(const ServeOptions& options);
  void on_record(const engine::JobRecord& record);
  void on_started(std::uint64_t id, std::size_t attempt);
  void accept_loop();
  void handle_connection(Connection* conn);
  /// nullopt = no response (connection should close without replying).
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

  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::unordered_map<std::uint64_t, JobEntry> jobs_;
  bool jobs_closing_ = false;  ///< wakes result-waiters during stop()

  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_flag_{false};
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  std::string stop_reason_;
  bool stopped_ = false;
  std::vector<engine::JobRecord> records_;
  std::size_t replayed_ = 0;
};

}  // namespace mthfx::serve
