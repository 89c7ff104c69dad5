// Socket-level tests of the HTTP front: raw request/response framing over a
// real ephemeral-port listener, query parsing, and concurrent submissions.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/http.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "util/json.hpp"

namespace clrearly::server {
namespace {

/// One blocking HTTP exchange over a fresh connection; returns the raw
/// response text ("" on connect failure).
std::string http_exchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get(int port, const std::string& path) {
  return http_exchange(port, "GET " + path +
                                 " HTTP/1.1\r\nHost: x\r\n"
                                 "Connection: close\r\n\r\n");
}

std::string post(int port, const std::string& path, const std::string& body) {
  return http_exchange(port, "POST " + path + " HTTP/1.1\r\nHost: x\r\n" +
                                 "Content-Type: application/json\r\n" +
                                 "Content-Length: " +
                                 std::to_string(body.size()) +
                                 "\r\nConnection: close\r\n\r\n" + body);
}

std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly one Content-Length-framed response off a keep-alive
/// connection; `buffer` carries leftover bytes between calls.
std::string recv_one_response(int fd, std::string& buffer) {
  char chunk[4096];
  std::size_t header_end;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return "";
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t marker = buffer.find("Content-Length: ");
  if (marker == std::string::npos || marker > header_end) return "";
  const std::size_t length = std::stoul(buffer.substr(marker + 16));
  const std::size_t total = header_end + 4 + length;
  while (buffer.size() < total) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return "";
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  std::string response = buffer.substr(0, total);
  buffer.erase(0, total);
  return response;
}

TEST(HttpTest, QueryParamParsing) {
  HttpRequest request;
  request.query = "from=3&limit=10&flag";
  EXPECT_EQ(request.query_param("from"), std::optional<std::string>("3"));
  EXPECT_EQ(request.query_param("limit"), std::optional<std::string>("10"));
  EXPECT_EQ(request.query_param("flag"), std::optional<std::string>(""));
  EXPECT_EQ(request.query_param("absent"), std::nullopt);
}

TEST(HttpTest, StatusTextCoversServiceCodes) {
  EXPECT_STREQ(status_text(200), "OK");
  EXPECT_STREQ(status_text(202), "Accepted");
  EXPECT_STREQ(status_text(429), "Too Many Requests");
  EXPECT_STREQ(status_text(500), "Internal Server Error");
}

TEST(HttpTest, ListenerRejectsPortsOutsideTheTcpRange) {
  // Narrowed to 16 bits, 70000 would bind port 4464 and -1 port 65535.
  EXPECT_THROW(Listener("127.0.0.1", 70000), std::invalid_argument);
  EXPECT_THROW(Listener("127.0.0.1", -1), std::invalid_argument);
}

TEST(HttpTest, ServerRejectsNegativeIdleTimeout) {
  // -1294967296 is --idle-timeout-ms 3000000000 wrapped through an int; it
  // must not be quietly replaced by the default timeout.
  ServiceOptions service_options;
  service_options.workers = 1;
  DseService service(service_options);
  ServerOptions server_options;
  server_options.port = 0;
  server_options.idle_timeout_ms = -1294967296;
  EXPECT_THROW(HttpServer(service, server_options), std::invalid_argument);
  service.shutdown(true);
}

TEST(HttpTest, ServerAnswersOverRealSockets) {
  ServiceOptions service_options;
  service_options.workers = 1;
  DseService service(service_options);
  ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  HttpServer server(service, server_options);
  ASSERT_GT(server.port(), 0);
  server.start();

  const std::string health = get(server.port(), "/v1/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(health.find("Content-Type: application/json"), std::string::npos);

  EXPECT_NE(get(server.port(), "/v1/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(post(server.port(), "/v1/jobs", "garbage").find("HTTP/1.1 400"),
            std::string::npos);

  // Malformed request line: connection dropped without a crash, and the
  // server still answers afterwards.
  EXPECT_EQ(http_exchange(server.port(), "BLORP\r\n\r\n"), "");
  EXPECT_NE(get(server.port(), "/v1/healthz").find("200 OK"),
            std::string::npos);

  server.stop();
  service.shutdown(true);
}

TEST(HttpTest, SlowWriterBodyArrivesInPieces) {
  // A client that dribbles its POST body across many small writes (with
  // pauses well past one recv) must still be framed correctly: the reader
  // has to loop until every declared Content-Length byte arrived.
  ServiceOptions service_options;
  service_options.workers = 1;
  DseService service(service_options);
  ServerOptions server_options;
  server_options.port = 0;
  HttpServer server(service, server_options);
  server.start();

  const std::string body = R"({
    "format_version": 1, "flow": "pfclr", "seed": 1,
    "ga": {"population_size": 8, "generations": 2},
    "application": "synthetic:5:1"
  })";
  const std::string head = "POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
                           "Content-Type: application/json\r\n"
                           "Content-Length: " + std::to_string(body.size()) +
                           "\r\nConnection: close\r\n\r\n";
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, head));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Body in three slow pieces, each smaller than the declared length.
  for (std::size_t offset = 0; offset < body.size(); offset += 40) {
    ASSERT_TRUE(send_all(fd, body.substr(offset, 40)));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 202"), std::string::npos) << response;

  server.stop();
  service.shutdown(true);
}

TEST(HttpTest, KeepAliveServesManyRequestsOnOneConnection) {
  ServiceOptions service_options;
  service_options.workers = 1;
  DseService service(service_options);
  ServerOptions server_options;
  server_options.port = 0;
  HttpServer server(service, server_options);
  server.start();

  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  std::string buffer;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(send_all(fd, "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
    const std::string response = recv_one_response(fd, buffer);
    ASSERT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos)
        << "request " << i << ": " << response;
    // HTTP/1.1 without a Connection header is persistent by default.
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
  }
  // An explicit close is honored: the response says so and the socket EOFs.
  ASSERT_TRUE(send_all(
      fd, "GET /v1/healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));
  const std::string last = recv_one_response(fd, buffer);
  EXPECT_NE(last.find("Connection: close"), std::string::npos) << last;
  char chunk[16];
  EXPECT_LE(::recv(fd, chunk, sizeof chunk, 0), 0);
  ::close(fd);

  server.stop();
  service.shutdown(true);
}

TEST(HttpTest, PipelinedRequestsAnswerInOrder) {
  ServiceOptions service_options;
  service_options.workers = 1;
  DseService service(service_options);
  ServerOptions server_options;
  server_options.port = 0;
  HttpServer server(service, server_options);
  server.start();

  // Two requests in one TCP write: both must be parsed from the shared
  // buffer and answered back-to-back over the same connection.
  const int fd = connect_to(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(
      fd,
      "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /v1/jobs HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"));
  std::string buffer;
  const std::string first = recv_one_response(fd, buffer);
  const std::string second = recv_one_response(fd, buffer);
  ::close(fd);
  EXPECT_NE(first.find("\"status\": \"ok\""), std::string::npos) << first;
  EXPECT_NE(second.find("\"jobs\""), std::string::npos) << second;
  EXPECT_NE(second.find("Connection: close"), std::string::npos);

  server.stop();
  service.shutdown(true);
}

TEST(HttpTest, SseStreamDeliversEventsAndFinalState) {
  ServiceOptions service_options;
  service_options.workers = 1;
  DseService service(service_options);
  ServerOptions server_options;
  server_options.port = 0;
  HttpServer server(service, server_options);
  server.start();

  const std::string body = R"({
    "format_version": 1, "flow": "pfclr", "seed": 1,
    "ga": {"population_size": 8, "generations": 3},
    "application": "synthetic:5:1"
  })";
  const std::string submitted =
      body_of(post(server.port(), "/v1/jobs", body));
  const std::string id = util::json_parse(submitted).at("id").as_string();

  // Stream from the beginning; the server closes the connection after the
  // terminal state frame, so reading to EOF collects the whole stream.
  const std::string stream = http_exchange(
      server.port(), "GET /v1/jobs/" + id +
                         "/events?from=0 HTTP/1.1\r\nHost: x\r\n"
                         "Accept: text/event-stream\r\n\r\n");
  EXPECT_NE(stream.find("Content-Type: text/event-stream"), std::string::npos)
      << stream;
  EXPECT_NE(stream.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(stream.find("id: 0"), std::string::npos);
  EXPECT_NE(stream.find("event: progress"), std::string::npos);
  EXPECT_NE(stream.find("event: state"), std::string::npos);
  EXPECT_NE(stream.find("\"state\": \"done\""), std::string::npos);

  // Resuming from a cursor skips the already-seen events.
  const std::string tail = http_exchange(
      server.port(), "GET /v1/jobs/" + id +
                         "/events?from=3 HTTP/1.1\r\nHost: x\r\n"
                         "Accept: text/event-stream\r\n\r\n");
  EXPECT_EQ(tail.find("id: 0"), std::string::npos) << tail;
  EXPECT_NE(tail.find("id: 3"), std::string::npos);

  // An unknown job answers a plain 404 instead of a stream.
  const std::string missing = http_exchange(
      server.port(), "GET /v1/jobs/job-999999/events HTTP/1.1\r\nHost: x\r\n"
                     "Accept: text/event-stream\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos) << missing;

  server.stop();
  service.shutdown(true);
}

TEST(HttpTest, ConcurrentSubmissionsAllComplete) {
  ServiceOptions service_options;
  service_options.workers = 2;
  service_options.queue_depth = 16;
  DseService service(service_options);
  ServerOptions server_options;
  server_options.port = 0;
  server_options.handler_threads = 4;
  HttpServer server(service, server_options);
  server.start();

  const std::string body = R"({
    "format_version": 1, "flow": "pfclr", "seed": 1,
    "ga": {"population_size": 8, "generations": 2},
    "application": "synthetic:5:1"
  })";
  std::vector<std::thread> clients;
  std::vector<std::string> responses(6);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    clients.emplace_back([&, i] {
      responses[i] = post(server.port(), "/v1/jobs", body);
    });
  }
  for (std::thread& client : clients) client.join();
  for (const std::string& response : responses) {
    EXPECT_NE(response.find("HTTP/1.1 202"), std::string::npos) << response;
  }

  // All six jobs eventually reach "done" (identical specs, shared session).
  for (int i = 0; i < 600; ++i) {
    const std::string list = body_of(get(server.port(), "/v1/jobs"));
    const util::JsonValue parsed = util::json_parse(list);
    std::size_t done = 0;
    for (const util::JsonValue& job : parsed.at("jobs").as_array()) {
      if (job.at("state").as_string() == "done") ++done;
    }
    if (done == responses.size()) break;
    ASSERT_LT(i, 599) << "jobs did not finish: " << list;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EXPECT_NE(post(server.port(), "/v1/shutdown", "").find("200 OK"),
            std::string::npos);
  EXPECT_TRUE(service.shutdown_requested());
  server.stop();
  service.shutdown(true);
}

}  // namespace
}  // namespace clrearly::server
