#include "server/server.hpp"

#include <unistd.h>

#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"

namespace clrearly::server {

HttpServer::HttpServer(DseService& service, ServerOptions options)
    : service_(service),
      listener_(options.host, options.port),
      options_([&options] {
        if (options.handler_threads == 0) options.handler_threads = 1;
        if (options.max_requests_per_connection == 0) {
          options.max_requests_per_connection = 1;
        }
        // A negative timeout is what a wrapped narrowing cast produces;
        // reject it instead of quietly serving with the default.
        if (options.idle_timeout_ms < 0) {
          throw std::invalid_argument(
              "server: idle_timeout_ms must not be negative");
        }
        if (options.idle_timeout_ms == 0) {
          options.idle_timeout_ms = kKeepAliveIdleMs;
        }
        return options;
      }()) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (!handlers_.empty()) return;
  handlers_.reserve(options_.handler_threads);
  for (std::size_t i = 0; i < options_.handler_threads; ++i) {
    handlers_.emplace_back([this] { handler_loop(); });
  }
}

void HttpServer::stop() {
  stopping_.store(true);
  for (std::thread& handler : handlers_) {
    if (handler.joinable()) handler.join();
  }
  handlers_.clear();
  listener_.close();
}

void HttpServer::handler_loop() {
  // accept(2) on a shared listening fd is thread-safe; the kernel hands each
  // connection to exactly one accepter, and the fd is non-blocking so the
  // losers return to polling. The threads need no coordination beyond the
  // stop flag (checked between short poll timeouts).
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = listener_.accept_once(/*timeout_ms=*/200);
    if (fd < 0) continue;
    static util::Counter& connections =
        util::metric_counter("server.keepalive.connections");
    connections.add();
    serve_connection(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  static util::Counter& requests =
      util::metric_counter("server.http.requests");
  static util::Counter& keepalive_requests =
      util::metric_counter("server.keepalive.requests");

  RequestReader reader(fd, &stopping_);
  for (std::size_t served = 0;
       served < options_.max_requests_per_connection; ++served) {
    auto request = reader.next(options_.idle_timeout_ms);
    if (!request.has_value()) break;  // closed, idle-timed-out, or stopping
    requests.add();
    if (served > 0) keepalive_requests.add();

    if (DseService::wants_sse(*request)) {
      // An SSE stream takes over the connection until the job finishes (or
      // the client/server goes away); headers are written lazily so a
      // non-streamable request still gets a plain error response.
      bool headers_sent = false;
      const auto sink = [fd, &headers_sent](const std::string& frame) {
        if (!headers_sent) {
          if (!write_stream_headers(fd, "text/event-stream")) return false;
          headers_sent = true;
        }
        return write_chunk(fd, frame);
      };
      const auto error = service_.stream_events_sse(*request, sink);
      if (error.has_value()) {
        write_response(fd, *error, /*keep_alive=*/false);
      } else if (headers_sent) {
        write_last_chunk(fd);
      }
      break;  // the stream (or its error) is the connection's last exchange
    }

    const bool keep_alive =
        request->keep_alive() &&
        served + 1 < options_.max_requests_per_connection &&
        !stopping_.load(std::memory_order_relaxed);
    if (!write_response(fd, service_.handle(*request), keep_alive)) break;
    if (!keep_alive) break;
  }
  ::close(fd);
}

}  // namespace clrearly::server
