#include "serve/server.hpp"

// repro-lint: allow-file(RL008) the counters_ bank is per-worker
// request/byte/error statistics, each a lone fetch_add/load with no
// ordering relationship to the data it counts; report() is called
// after stop() joins the workers, and the live /stats endpoint
// documents that it serves point-in-time values.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "util/error.hpp"

namespace repro::serve {

namespace {

/// Tick for idle waits: how quickly drain and deadline re-checks react.
constexpr int kIdlePollMs = 20;
constexpr std::int64_t kNsPerMs = 1'000'000;

/// One poll() for readability, bounded by `timeout_ms`. Returns the
/// poll result (>0 readable, 0 timeout, <0 error other than EINTR).
int wait_readable(int fd, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0 && errno == EINTR) return 0;
  return ready;
}

}  // namespace

void ServerOptions::validate() const {
  if (workers == 0) {
    throw ConfigError("serve: workers must be positive");
  }
  if (admission_capacity == 0) {
    throw ConfigError("serve: admission_capacity must be positive");
  }
  if (request_deadline_ms <= 0) {
    throw ConfigError("serve: request_deadline_ms must be positive");
  }
  if (max_line_bytes == 0) {
    throw ConfigError("serve: max_line_bytes must be positive");
  }
}

void publish_serve_metrics(obs::MetricsRegistry& metrics,
                           const ServeReport& report) {
  // epoch_swaps is the number of epochs the pipeline published — a pure
  // function of the input — so it rides the deterministic channel. The
  // rest depends on what clients did and when; runtime channel only.
  metrics.counter("serve.epoch_swaps").add(report.epoch_swaps);
  const auto runtime = [&](std::string_view name, std::uint64_t value) {
    metrics.counter(name, obs::Channel::kRuntime).add(value);
  };
  runtime("serve.accepted", report.accepted);
  runtime("serve.requests", report.requests);
  runtime("serve.replies_ok", report.replies_ok);
  runtime("serve.replies_err", report.replies_err);
  runtime("serve.busy_sheds", report.busy_sheds);
  runtime("serve.timeouts", report.timeouts);
  runtime("serve.disconnects", report.disconnects);
  runtime("serve.accept_failures", report.accept_failures);
  runtime("serve.protocol_errors", report.protocol_errors);
}

Server::Server(ServerOptions options) : options_(std::move(options)) {
  options_.validate();
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw ConfigError("serve: start() called twice");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    throw IoError("serve: socket() failed: " +
                  std::string{std::strerror(errno)});
  }
  const int yes = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<const struct sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string reason{std::strerror(errno)};
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("serve: bind/listen on 127.0.0.1:" +
                  std::to_string(options_.port) + " failed: " + reason);
  }
  struct sockaddr_in bound;
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_,
                    reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0) {
    const std::string reason{std::strerror(errno)};
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("serve: getsockname failed: " + reason);
  }
  port_ = ntohs(bound.sin_port);

  admission_ =
      std::make_unique<AdmissionQueue<Conn>>(options_.admission_capacity);
  started_ = true;
  acceptor_ = std::thread{[this] { accept_loop(); }};
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::publish(std::shared_ptr<const ServeView> view) {
  {
    const std::lock_guard lock{view_mutex_};
    view_ = std::move(view);
  }
  counters_.epoch_swaps.fetch_add(1, std::memory_order_relaxed);
}

bool Server::has_view() const {
  const std::lock_guard lock{view_mutex_};
  return view_ != nullptr;
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Stop the intake first: no new connections, then let the workers
  // answer everything in flight and everything already admitted before
  // joining. Order matters — closing the admission queue while the
  // acceptor still offers would leak the raced connections.
  draining_.store(true, std::memory_order_relaxed);
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  admission_->close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

ServeReport Server::report() const {
  const auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  ServeReport report;
  report.accepted = load(counters_.accepted);
  report.requests = load(counters_.requests);
  report.replies_ok = load(counters_.replies_ok);
  report.replies_err = load(counters_.replies_err);
  report.busy_sheds = load(counters_.busy_sheds);
  report.timeouts = load(counters_.timeouts);
  report.disconnects = load(counters_.disconnects);
  report.accept_failures = load(counters_.accept_failures);
  report.protocol_errors = load(counters_.protocol_errors);
  report.epoch_swaps = load(counters_.epoch_swaps);
  return report;
}

void Server::accept_loop() {
  std::uint64_t accept_index = 0;
  while (!draining_.load(std::memory_order_relaxed)) {
    if (wait_readable(listen_fd_, kIdlePollMs) <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNABORTED) {
        continue;
      }
      counters_.accept_failures.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::uint64_t key = accept_index++;
    if (options_.faults != nullptr && options_.faults->serve_accept_fails(key)) {
      // The injected flavour of a failed accept: from the client's side
      // the connection resets before a single byte; the listener keeps
      // going.
      counters_.accept_failures.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    std::optional<Conn> evicted;
    if (!admission_->offer(Conn{fd, key}, evicted)) {
      // Queue already closed (drain raced the accept): shed the
      // newcomer explicitly, like any other overload.
      counters_.busy_sheds.fetch_add(1, std::memory_order_relaxed);
      reply_and_close(fd, Response::error(ErrorCode::kBusy,
                                          "server is shutting down"));
      continue;
    }
    counters_.accepted.fetch_add(1, std::memory_order_relaxed);
    if (evicted.has_value()) {
      // Overload: the oldest waiting connection pays, with an explicit
      // reply instead of a silent drop.
      counters_.busy_sheds.fetch_add(1, std::memory_order_relaxed);
      reply_and_close(evicted->fd,
                      Response::error(ErrorCode::kBusy,
                                      "admission queue overflow"));
    }
  }
}

void Server::worker_loop() {
  while (auto conn = admission_->pop()) {
    handle_connection(*conn);
  }
}

void Server::handle_connection(Conn conn) {
  std::string buffer;
  std::uint64_t request_index = 0;
  for (;;) {
    // Idle phase: between requests the connection costs nothing but a
    // poll tick. During drain a request already sitting in the socket
    // is still answered (poll with a zero timeout); a truly idle
    // connection is closed.
    while (buffer.empty()) {
      const bool draining = draining_.load(std::memory_order_relaxed);
      const int ready = wait_readable(conn.fd, draining ? 0 : kIdlePollMs);
      if (ready == 0) {
        if (draining) {
          ::close(conn.fd);
          return;
        }
        continue;
      }
      char chunk[1024];
      const ssize_t n =
          ready < 0 ? -1 : ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        // Clean EOF between requests; nothing was lost.
        ::close(conn.fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }

    // Request phase: the deadline clock runs from the first byte.
    const obs::Stopwatch clock;
    const std::int64_t budget_ns = options_.request_deadline_ms * kNsPerMs;
    std::int64_t synthetic_ns = 0;
    const std::uint64_t key = (conn.key << 16) + request_index;
    ++request_index;
    counters_.requests.fetch_add(1, std::memory_order_relaxed);
    if (options_.faults != nullptr &&
        options_.faults->serve_slow_client(key)) {
      // The injected stall eats the whole budget: however fast the rest
      // of the request goes, it surfaces as a typed TIMEOUT.
      synthetic_ns += budget_ns;
    }

    bool timed_out = false;
    std::size_t eol;
    while ((eol = buffer.find('\n')) == std::string::npos) {
      if (buffer.size() > options_.max_line_bytes) {
        counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        reply_and_close(conn.fd,
                        Response::error(ErrorCode::kBadRequest,
                                        "request line too long"));
        counters_.replies_err.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const std::int64_t remaining_ns =
          budget_ns - clock.elapsed_ns() - synthetic_ns;
      if (remaining_ns <= 0) {
        timed_out = true;
        break;
      }
      const int wait_ms = static_cast<int>(
          std::min<std::int64_t>(remaining_ns / kNsPerMs + 1, kIdlePollMs));
      const int ready = wait_readable(conn.fd, wait_ms);
      if (ready == 0) continue;
      char chunk[1024];
      const ssize_t n =
          ready < 0 ? -1 : ::recv(conn.fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        // The client vanished mid-request.
        counters_.disconnects.fetch_add(1, std::memory_order_relaxed);
        ::close(conn.fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    if (timed_out) {
      // Best-effort typed reply; the line can no longer be resynced, so
      // the connection is cut either way.
      counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
      reply_and_close(conn.fd, Response::error(ErrorCode::kTimeout,
                                               "request deadline exceeded"));
      counters_.replies_err.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    std::string line = buffer.substr(0, eol);
    buffer.erase(0, eol + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();

    Response response;
    bool close_after_reply = false;
    try {
      const Request request = parse_request(line);
      if (request.kind == RequestKind::kSlow) {
        if (options_.enable_debug_commands) {
          obs::sleep_ms(request.slow_ms);
          response.lines = {"slept " + std::to_string(request.slow_ms)};
        } else {
          response = Response::error(ErrorCode::kBadRequest,
                                     "slow is disabled");
        }
      } else {
        std::shared_ptr<const ServeView> view;
        {
          const std::lock_guard lock{view_mutex_};
          view = view_;
        }
        if (view == nullptr) {
          response = Response::error(ErrorCode::kUnavailable,
                                     "no epoch published yet");
        } else {
          response = view->answer(request);
        }
      }
    } catch (const ParseError& err) {
      counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      response = Response::error(ErrorCode::kBadRequest, err.what());
    }
    if (clock.elapsed_ns() + synthetic_ns > budget_ns) {
      // Computed too late is not computed: replace whatever the answer
      // was with the typed overrun.
      counters_.timeouts.fetch_add(1, std::memory_order_relaxed);
      response = Response::error(ErrorCode::kTimeout,
                                 "request deadline exceeded");
      close_after_reply = true;
    }
    if (options_.faults != nullptr &&
        options_.faults->serve_disconnect(key)) {
      // The client is gone before the reply could be written.
      counters_.disconnects.fetch_add(1, std::memory_order_relaxed);
      ::close(conn.fd);
      return;
    }
    if (!write_response(conn.fd, response)) {
      counters_.disconnects.fetch_add(1, std::memory_order_relaxed);
      ::close(conn.fd);
      return;
    }
    if (response.ok()) {
      counters_.replies_ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      counters_.replies_err.fetch_add(1, std::memory_order_relaxed);
    }
    if (close_after_reply) {
      ::close(conn.fd);
      return;
    }
  }
}

void Server::reply_and_close(int fd, const Response& response) {
  (void)write_response(fd, response);
  ::close(fd);
}

bool Server::write_response(int fd, const Response& response) {
  const std::string bytes = render(response);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace repro::serve
