// The socket front of the serve daemon: a Listener plus a small pool of
// handler threads, each looping accept -> per-connection request loop ->
// DseService::handle -> respond. Connections are persistent (HTTP/1.1
// keep-alive with pipelining) up to a per-connection request bound and an
// idle timeout; SSE requests switch the connection into a chunked
// event-stream and close it afterwards. Start/stop are explicit so the CLI
// can interleave the serving loop with signal polling and graceful drain.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "server/http.hpp"
#include "server/service.hpp"

namespace clrearly::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 8080;  ///< 0 picks an ephemeral port (see HttpServer::port())
  std::size_t handler_threads = 4;
  /// Requests served over one keep-alive connection before the server
  /// closes it (bounds how long one client can monopolize a handler).
  std::size_t max_requests_per_connection = kMaxRequestsPerConnection;
  /// How long a keep-alive connection may sit idle between requests
  /// (0 = kKeepAliveIdleMs; negative is rejected).
  int idle_timeout_ms = kKeepAliveIdleMs;
};

class HttpServer {
 public:
  /// Binds and listens immediately (throws on failure, and
  /// std::invalid_argument for an out-of-range port or idle timeout); call
  /// start() to begin accepting. `service` must outlive the server.
  HttpServer(DseService& service, ServerOptions options);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  int port() const noexcept { return listener_.port(); }

  void start();

  /// Stop accepting connections and join the handler threads. In-flight
  /// requests finish (their responses are cheap — job execution happens on
  /// the queue's workers, not here); keep-alive loops and SSE streams
  /// notice the stop flag and wind down. Idempotent.
  void stop();

 private:
  void handler_loop();
  /// Serve every request of one accepted connection; closes `fd`.
  void serve_connection(int fd);

  DseService& service_;
  Listener listener_;
  const ServerOptions options_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> handlers_;
};

}  // namespace clrearly::server
