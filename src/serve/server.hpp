// The crash-tolerant query daemon.
//
// A Server listens on a loopback TCP port and answers the line protocol
// of serve/protocol.hpp against whatever ServeView was last published.
// Robustness is the design center, in four mechanisms:
//
//   * Admission control — accepted connections pass through a bounded
//     queue (serve::AdmissionQueue). When it overflows, the *oldest*
//     waiting connection is evicted and answered with an explicit
//     "ERR BUSY" before being closed: overload sheds visibly at the
//     edge instead of stalling the ingest loop underneath.
//   * Per-request deadlines — a request that cannot be read and
//     answered within the budget gets a typed "ERR TIMEOUT" reply
//     (best-effort) and the connection is cut; one slow client can
//     never camp on a worker.
//   * Epoch hot-swap — publish() swaps a std::shared_ptr<const
//     ServeView>; in-flight requests drain on the view they started
//     with, so no query ever observes a half-built epoch.
//   * Fault injection — the fault.serve_* sites (slow clients,
//     mid-request disconnects, accept failures) are rolled per
//     connection/request so the chaos suite exercises every
//     degradation path deterministically.
//
// Graceful shutdown: stop() closes the listener, lets workers finish
// in-flight *and* already-admitted connections, then joins. SIGTERM
// handling is the CLI's job (tools/serve_landscape) — the library stays
// signal-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "serve/admission_queue.hpp"
#include "serve/view.hpp"

namespace repro::obs {
class MetricsRegistry;
}  // namespace repro::obs

namespace repro::serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back
  /// with Server::port() after start()).
  std::uint16_t port = 0;
  /// Worker threads answering requests.
  std::size_t workers = 2;
  /// Bounded admission queue capacity; overflow sheds with BUSY.
  std::size_t admission_capacity = 16;
  /// Per-request budget from first byte to reply.
  std::int64_t request_deadline_ms = 1000;
  /// Longest accepted request line; longer is a protocol error.
  std::size_t max_line_bytes = 4096;
  /// Enables the `slow <ms>` debug verb (bench/test seam for forcing
  /// deadline overruns and queue buildup). Off in production.
  bool enable_debug_commands = false;
  /// Optional injector for the fault.serve_* sites (non-owning).
  fault::FaultInjector* faults = nullptr;

  /// Throws ConfigError on zero workers/capacity/deadline/line bound.
  void validate() const;
};

/// The daemon's own accounting. Everything here is per-process serving
/// state — it never enters the dataset or an epoch checkpoint. Only
/// epoch_swaps is a pure function of the pipeline input; the rest
/// depends on client behavior and scheduling (runtime channel).
struct ServeReport {
  std::uint64_t accepted = 0;         // connections admitted to the queue
  std::uint64_t requests = 0;         // request lines parsed or attempted
  std::uint64_t replies_ok = 0;       // OK responses written
  std::uint64_t replies_err = 0;      // ERR responses written (any code)
  std::uint64_t busy_sheds = 0;       // connections evicted with BUSY
  std::uint64_t timeouts = 0;         // deadline overruns (typed TIMEOUT)
  std::uint64_t disconnects = 0;      // clients lost mid-request/reply
  std::uint64_t accept_failures = 0;  // accept() faults (real + injected)
  std::uint64_t protocol_errors = 0;  // unparseable/oversized requests
  std::uint64_t epoch_swaps = 0;      // views published
};

/// Exports the report: serve.epoch_swaps on the deterministic channel
/// (it is the number of epochs the pipeline ran), everything else on
/// the runtime channel.
void publish_serve_metrics(obs::MetricsRegistry& metrics,
                           const ServeReport& report);

class Server {
 public:
  /// Validates and adopts the options; call start() to begin serving.
  explicit Server(ServerOptions options);
  /// stop()s if still running.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1, starts the accept and worker threads. Throws
  /// IoError when the socket cannot be set up.
  void start();

  /// Bound port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Hot-swaps the query snapshot. Requests admitted after this answer
  /// on `view`; in-flight requests drain on the previous one.
  void publish(std::shared_ptr<const ServeView> view);
  [[nodiscard]] bool has_view() const;

  /// Graceful drain: stop accepting, answer everything in flight and
  /// already admitted, join all threads. Idempotent.
  void stop();

  /// Counter snapshot; stable once stop() returned.
  [[nodiscard]] ServeReport report() const;

 private:
  /// One admitted connection: the socket plus its deterministic fault
  /// key (accept order — the accept loop is single-threaded).
  struct Conn {
    int fd = -1;
    std::uint64_t key = 0;
  };

  void accept_loop();
  void worker_loop();
  void handle_connection(Conn conn);
  void reply_and_close(int fd, const Response& response);
  /// Writes the full rendered response; false when the client is gone.
  bool write_response(int fd, const Response& response);

  ServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::unique_ptr<AdmissionQueue<Conn>> admission_;

  mutable std::mutex view_mutex_;
  std::shared_ptr<const ServeView> view_;

  struct Counters {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> replies_ok{0};
    std::atomic<std::uint64_t> replies_err{0};
    std::atomic<std::uint64_t> busy_sheds{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> disconnects{0};
    std::atomic<std::uint64_t> accept_failures{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> epoch_swaps{0};
  };
  Counters counters_;
};

}  // namespace repro::serve
