#include "server/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <stdexcept>

namespace clrearly::server {

namespace {

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// Parse the head (request line + header fields) of `buffer[0, header_end)`
/// into `request`; false on a malformed request line.
bool parse_head(const std::string& head, HttpRequest& request) {
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) return false;
  request.method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  request.version = request_line.substr(sp2 + 1);
  const std::size_t qmark = target.find('?');
  request.path = target.substr(0, qmark);
  if (qmark != std::string::npos) request.query = target.substr(qmark + 1);

  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string line = head.substr(pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string value = line.substr(colon + 1);
      const std::size_t first = value.find_first_not_of(" \t");
      const std::size_t last = value.find_last_not_of(" \t");
      value = first == std::string::npos
                  ? std::string()
                  : value.substr(first, last - first + 1);
      request.headers[lower(line.substr(0, colon))] = value;
    }
    pos = eol + 2;
  }
  return true;
}

}  // namespace

std::optional<std::string> HttpRequest::query_param(
    const std::string& key) const {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (pair.substr(0, eq) == key) {
      return eq == std::string::npos ? std::string() : pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return std::nullopt;
}

const std::string* HttpRequest::header(const std::string& lower_name) const {
  const auto it = headers.find(lower_name);
  return it == headers.end() ? nullptr : &it->second;
}

bool HttpRequest::keep_alive() const {
  const std::string* connection = header("connection");
  if (connection != nullptr) {
    const std::string value = lower(*connection);
    if (value.find("close") != std::string::npos) return false;
    if (value.find("keep-alive") != std::string::npos) return true;
  }
  return version != "HTTP/1.0";  // HTTP/1.1 is persistent by default
}

HttpResponse HttpResponse::json(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse& HttpResponse::with_header(std::string name, std::string value) {
  headers.emplace_back(std::move(name), std::move(value));
  return *this;
}

const char* status_text(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

bool RequestReader::fill() {
  char chunk[4096];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

std::optional<HttpRequest> RequestReader::next(int idle_timeout_ms) {
  // Wait for the request to start (pipelined bytes may already be buffered).
  // Poll in short slices so a stopping server is noticed promptly.
  if (buffer_.empty()) {
    int waited = 0;
    for (;;) {
      if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
        return std::nullopt;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int slice = std::min(200, idle_timeout_ms - waited);
      if (slice <= 0) return std::nullopt;  // idle timeout
      const int ready = ::poll(&pfd, 1, slice);
      if (ready < 0) return std::nullopt;
      if (ready > 0) break;
      waited += slice;
    }
  }

  // Head: read until the blank line, however recv fragments it.
  std::size_t header_end;
  while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (buffer_.size() >= kMaxHeaderBytes) {
      write_response(fd_, HttpResponse::json(
                              431, "{\n  \"error\": \"headers too large\"\n}"));
      return std::nullopt;
    }
    if (!fill()) return std::nullopt;
  }

  HttpRequest request;
  if (!parse_head(buffer_.substr(0, header_end), request)) return std::nullopt;

  std::size_t content_length = 0;
  if (const std::string* declared = request.header("content-length")) {
    const char* begin = declared->data();
    const char* end = begin + declared->size();
    const auto [ptr, ec] = std::from_chars(begin, end, content_length);
    if (ec != std::errc() || ptr != end) return std::nullopt;
  }
  if (content_length > kMaxBodyBytes) {
    write_response(
        fd_, HttpResponse::json(413, "{\n  \"error\": \"body too large\"\n}"));
    return std::nullopt;
  }

  // Body: loop until every declared byte has arrived — a slow writer may
  // deliver the body long after the head, in arbitrarily small pieces.
  const std::size_t body_start = header_end + 4;
  while (buffer_.size() - body_start < content_length) {
    if (!fill()) return std::nullopt;
  }
  request.body = buffer_.substr(body_start, content_length);
  // Keep any pipelined bytes beyond this request for the next call.
  buffer_.erase(0, body_start + content_length);
  return request;
}

std::optional<HttpRequest> read_request(int fd) {
  RequestReader reader(fd);
  return reader.next(/*idle_timeout_ms=*/kKeepAliveIdleMs);
}

bool write_response(int fd, const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_text(response.status) +
                    "\r\nContent-Type: " + response.content_type +
                    "\r\nContent-Length: " + std::to_string(response.body.size());
  for (const auto& [name, value] : response.headers) {
    out += "\r\n" + name + ": " + value;
  }
  out += std::string("\r\nConnection: ") + (keep_alive ? "keep-alive" : "close") +
         "\r\n\r\n" + response.body;
  return write_all(fd, out.data(), out.size());
}

bool write_stream_headers(int fd, const std::string& content_type) {
  const std::string out =
      "HTTP/1.1 200 OK\r\nContent-Type: " + content_type +
      "\r\nCache-Control: no-store\r\nTransfer-Encoding: chunked\r\n"
      "Connection: close\r\n\r\n";
  return write_all(fd, out.data(), out.size());
}

bool write_chunk(int fd, const std::string& data) {
  if (data.empty()) return true;  // an empty chunk would terminate the stream
  char size_line[32];
  const int n = std::snprintf(size_line, sizeof size_line, "%zx\r\n",
                              data.size());
  std::string out(size_line, static_cast<std::size_t>(n));
  out += data;
  out += "\r\n";
  return write_all(fd, out.data(), out.size());
}

bool write_last_chunk(int fd) { return write_all(fd, "0\r\n\r\n", 5); }

Listener::Listener(const std::string& host, int port) {
  // Checked before htons's narrowing cast, which would wrap 70000 to 4464.
  if (port < 0 || port > 65535) {
    throw std::invalid_argument("server: port outside [0, 65535]: " +
                                std::to_string(port));
  }
  // Non-blocking: every handler thread polls this fd, one connection wakes
  // them all, and the threads that lose the accept race must not block in
  // accept(2) past a stop() request. Accepted fds do not inherit the flag
  // on Linux, so client sockets stay blocking (with the timeouts below).
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) throw std::runtime_error("server: socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw std::runtime_error("server: bad listen address: " + host);
  }
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error(std::string("server: bind failed: ") +
                             std::strerror(err));
  }
  if (::listen(fd_, 64) != 0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error(std::string("server: listen failed: ") +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
}

Listener::~Listener() { close(); }

int Listener::accept_once(int timeout_ms) {
  if (fd_ < 0) return -1;
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) return -1;
  // EAGAIN/EWOULDBLOCK: another handler took the connection first.
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return -1;
  // A stuck or malicious client must not wedge a handler thread forever.
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  return client;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace clrearly::server
