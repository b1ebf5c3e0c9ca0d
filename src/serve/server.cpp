#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "engine/journal.hpp"

namespace mthfx::serve {

Server::Server(ServeOptions options)
    : options_(std::move(options)), scheduler_(options_.engine) {}

Server::~Server() {
  stop();
}

void Server::start() {
  scheduler_.start();
  if (options_.resume) scheduler_.resume();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("serve: socket: ") +
                             std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("serve: bad host '" + options_.host + "'");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0)
    throw std::runtime_error(std::string("serve: bind: ") +
                             std::strerror(errno));
  if (::listen(listen_fd_, 64) < 0)
    throw std::runtime_error(std::string("serve: listen: ") +
                             std::strerror(errno));
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accepting_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (stop) or fatal: stop accepting
    }
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (!accepting_) {
      ::close(fd);
      return;
    }
    connections_.emplace_back();
    Connection* conn = &connections_.back();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { handle_connection(conn); });
  }
}

void Server::handle_connection(Connection* conn) {
  LineReader reader(conn->fd);
  std::string conn_tenant;
  while (true) {
    std::optional<std::string> line;
    try {
      line = reader.read_line();
    } catch (const std::exception& e) {
      // Oversized frame: framing is broken, close after telling why.
      send_all(conn->fd, encode_frame(error_response(e.what())));
      break;
    }
    if (!line) break;  // client disconnected; its jobs keep running
    if (line->empty()) continue;
    obs::Json response;
    try {
      const Request request = parse_request(*line);
      response = handle_request(request, conn_tenant);
    } catch (const std::exception& e) {
      response = error_response(e.what());
    }
    if (!send_all(conn->fd, encode_frame(response))) break;
  }
  std::lock_guard<std::mutex> lock(conn_mutex_);
  ::shutdown(conn->fd, SHUT_RDWR);
  ::close(conn->fd);
  conn->fd = -1;
}

obs::Json Server::handle_request(const Request& request,
                                 std::string& conn_tenant) {
  if (options_.require_hello && conn_tenant.empty() &&
      (request.op == Op::kSubmit || request.op == Op::kStatus ||
       request.op == Op::kResult || request.op == Op::kCancel))
    return error_response("hello required before " +
                          std::string(to_string(request.op)));

  switch (request.op) {
    case Op::kHello: {
      conn_tenant = request.tenant;
      obs::Json r = ok_response(Op::kHello);
      r["tenant"] = conn_tenant;
      return r;
    }
    case Op::kSubmit:
      return handle_submit(request, conn_tenant);
    case Op::kStatus: {
      const std::optional<engine::JobState> state =
          scheduler_.status(request.id);
      if (!state)
        return error_response("unknown job id " + std::to_string(request.id));
      obs::Json r = ok_response(Op::kStatus);
      r["id"] = request.id;
      r["state"] = engine::to_string(*state);
      return r;
    }
    case Op::kResult:
      return handle_result(request);
    case Op::kCancel: {
      std::string error;
      if (!scheduler_.cancel(request.id, request.note, &error))
        return error_response(error);
      obs::Json r = ok_response(Op::kCancel);
      r["id"] = request.id;
      return r;
    }
    case Op::kStats: {
      obs::Json r = ok_response(Op::kStats);
      r["stats"] = stats_json();
      return r;
    }
    case Op::kDrain: {
      // Refuse new work, wait for everything accepted to finish, then
      // hand the actual teardown to the serving thread (this thread is
      // itself a connection thread and cannot join itself).
      draining_.store(true);
      scheduler_.queue().wait_idle();
      obs::Json r = ok_response(Op::kDrain);
      r["jobs"] = scheduler_.job_counts().tracked;
      request_stop(request.note.empty() ? "drain requested" : request.note);
      return r;
    }
  }
  return error_response("unhandled op");
}

obs::Json Server::handle_submit(const Request& request,
                                const std::string& conn_tenant) {
  if (draining_.load()) return error_response("server draining");
  engine::Job job;
  job.name = request.name;
  job.priority = request.priority;
  job.deadline_seconds = request.deadline_s;
  job.input = request.input;
  job.tenant = conn_tenant.empty() ? "anonymous" : conn_tenant;
  const engine::Admission admission = scheduler_.submit(std::move(job));
  if (!admission.accepted) return error_response(admission.reason);
  obs::Json r = ok_response(Op::kSubmit);
  r["id"] = admission.id;
  return r;
}

obs::Json Server::handle_result(const Request& request) {
  if (!scheduler_.status(request.id))
    return error_response("unknown job id " + std::to_string(request.id));
  const std::optional<engine::JobRecord> record =
      scheduler_.wait(request.id, request.timeout_s);
  if (!record)
    return error_response("timeout waiting for job " +
                          std::to_string(request.id));
  obs::Json r = ok_response(Op::kResult);
  r["id"] = request.id;
  r["state"] = engine::to_string(record->state);
  r["record"] = engine::job_record_to_json(*record);
  return r;
}

obs::Json Server::stats_json() {
  obs::Json s = obs::Json::object();
  s["draining"] = draining_.load();
  s["replayed"] =
      scheduler_.registry().counter_total("engine.jobs_replayed");
  const engine::JobQueue& q = scheduler_.queue();
  obs::Json tenants = obs::Json::object();
  for (const auto& [id, t] : q.stats()) {
    obs::Json j = obs::Json::object();
    j["weight"] = t.options.weight;
    j["max_queued"] = t.options.max_queued;
    j["max_in_flight"] = t.options.max_in_flight;
    j["queued"] = t.queued;
    j["in_flight"] = t.in_flight;
    j["submitted"] = t.submitted;
    j["admitted"] = t.admitted;
    j["completed"] = t.completed;
    j["failed"] = t.failed;
    j["rejected"] = t.rejected;
    j["shed"] = t.shed;
    j["canceled"] = t.canceled;
    tenants[id] = std::move(j);
  }
  s["tenants"] = std::move(tenants);

  obs::Json queue = obs::Json::object();
  queue["depth"] = q.depth();
  queue["accepted"] = q.accepted();
  queue["rejected"] = q.rejected();
  queue["high_water"] = q.high_water();
  queue["tenant_in_flight"] = q.in_flight();
  s["queue"] = std::move(queue);

  obs::Json cache = obs::Json::object();
  cache["hits"] = scheduler_.store().hits();
  cache["misses"] = scheduler_.store().misses();
  cache["entries"] = scheduler_.store().size();
  s["cache"] = std::move(cache);

  const engine::JobCounts counts = scheduler_.job_counts();
  obs::Json jobs = obs::Json::object();
  jobs["tracked"] = counts.tracked;
  jobs["terminal"] = counts.terminal;
  s["jobs"] = std::move(jobs);
  return s;
}

void Server::request_stop(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stop_reason_.empty()) stop_reason_ = reason;
  }
  stop_flag_.store(true);
}

std::vector<engine::JobRecord> Server::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) return records_;
    stopped_ = true;
    if (stop_reason_.empty()) stop_reason_ = "stop";
  }
  stop_flag_.store(true);
  draining_.store(true);

  // Finish everything accepted: drain closes the queue, and the workers
  // empty every tenant backlog before they exit.
  records_ = scheduler_.drain();
  // Every accepted job is terminal by now, so no `result` wait is left
  // parked.
  scheduler_.journal().record_shutdown(stop_reason_);

  // Tear down the listener (unblocks accept) and every connection
  // (unblocks their reads), then join.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    accepting_ = false;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (Connection& conn : connections_)
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
  }
  for (Connection& conn : connections_)
    if (conn.thread.joinable()) conn.thread.join();
  connections_.clear();
  return records_;
}

}  // namespace mthfx::serve
