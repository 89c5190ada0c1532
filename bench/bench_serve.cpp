// ABL-11 — the crash-tolerant query daemon under concurrent ingest.
//
// Runs scenario::serve_streaming_dataset (the epoch loop with the
// serving layer on top) and hammers the daemon from concurrent clients
// the whole time the stream is ingesting: per-request latency is
// measured client-side while the pipeline re-clusters underneath, then
// every reply of the full query script is byte-compared against a view
// built from the one-shot batch pipeline. A final overload phase parks
// every worker with the `slow` debug verb and floods the admission
// queue, forcing the daemon through its typed degradation paths (ERR
// TIMEOUT deadline overruns, ERR BUSY admission sheds). Writes
// BENCH_SERVE.json and, with
//
//   $ bench_serve --check ../EXPERIMENTS.md
//
// gates (exit 1 on violation):
//   * byte_mismatches == 0 — the kill-anywhere serving guarantee,
//   * `serve.*` deterministic counters match the ABL-11 table exactly
//     (serve.epoch_swaps is a pure function of the epoch split),
//   * timeouts >= 1 and busy_sheds >= 1 — the overload paths really
//     ran,
//   * p99 <= the request deadline — a tolerance band, not a perf gate:
//     any completed reply slower than the deadline would have been a
//     typed TIMEOUT instead.
//
//   REPRO_BENCH_SCALE=0.25 ./bench_serve [--check <EXPERIMENTS.md>]
//                                        [--out <file.json>]
//
// repro-lint: allow-file(RL008) the port/final_epoch_live handshakes
// are textbook release/acquire pairs (writer publishes, reader spins),
// and the remaining relaxed cells are per-client statistics read only
// after every client thread has joined.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "gate_table.hpp"
#include "obs/metrics.hpp"
#include "scenario/serve.hpp"
#include "scenario/stream.hpp"
#include "serve/protocol.hpp"
#include "serve/view.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

using clock_type = std::chrono::steady_clock;
using repro::obs::Channel;
using repro::obs::MetricsRegistry;

/// Minimal blocking client for the daemon's line protocol.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const struct sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool send_raw(const std::string& bytes) {
    if (fd_ < 0) return false;
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// One framed response's exact wire bytes; empty = connection closed.
  std::string read_response() {
    std::string head = read_line();
    if (head.empty()) return {};
    std::string out = head;
    if (head.rfind("OK ", 0) == 0) {
      std::string_view count_text{head};
      count_text.remove_prefix(3);
      if (!count_text.empty() && count_text.back() == '\n') {
        count_text.remove_suffix(1);
      }
      const std::size_t count = static_cast<std::size_t>(
          repro::parse_u64(count_text, "bench response line count"));
      for (std::size_t i = 0; i < count; ++i) {
        const std::string line = read_line();
        if (line.empty()) return {};
        out += line;
      }
    }
    return out;
  }

  std::string ask(const std::string& request) {
    if (!send_raw(request + "\n")) return {};
    return read_response();
  }

 private:
  std::string read_line() {
    std::size_t eol;
    while ((eol = buffer_.find('\n')) == std::string::npos) {
      char chunk[1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    std::string line = buffer_.substr(0, eol + 1);
    buffer_.erase(0, eol + 1);
    return line;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// The query script the byte-identity gate is stated over.
std::vector<std::string> make_script(const repro::scenario::Dataset& ds) {
  std::string md5 = ds.db.samples().front().md5;
  int b_cluster = 0;
  for (const auto& sample : ds.db.samples()) {
    const int c = ds.b.cluster_of_sample(sample.id);
    if (c >= 0) {
      md5 = sample.md5;
      b_cluster = c;
      break;
    }
  }
  return {
      "health",
      "stats",
      "ccmap",
      "lookup " + md5,
      "lookup ffffffffffffffffffffffffffffffff",
      "cluster " + std::to_string(b_cluster),
      "cluster 999999",
  };
}

double percentile_ms(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted_ms.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_ms.size())));
  return sorted_ms[index];
}

/// Only the deterministic serving counters are gated by the table.
bool gated(const std::string& name) { return name.rfind("serve.", 0) == 0; }

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  namespace fs = std::filesystem;

  std::string check_path;
  std::string out_path = "BENCH_SERVE.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_serve [--check <EXPERIMENTS.md>] "
                   "[--out <file.json>]\n";
      return 2;
    }
  }

  try {
    scenario::ScenarioOptions options = bench::options_from_env();
    constexpr std::size_t kEpochs = 4;
    constexpr std::int64_t kDeadlineMs = 1000;
    constexpr std::size_t kClients = 4;
    std::cout << "### ABL-11: query service under concurrent ingest\n"
              << "(seed " << options.seed << ", scale " << options.scale
              << (options.faults.empty() ? "" : ", fault injection ON")
              << "; batch reference build, then the serving epoch loop...)\n\n";

    // The reference every live reply is compared to: a view built from
    // the one-shot batch pipeline, stamped with the final epoch count.
    const scenario::Dataset batch = scenario::build_paper_dataset(options);
    const serve::ServeView reference = serve::ServeView::build(
        batch.db, batch.e, batch.p, batch.m, batch.b, kEpochs);
    const std::vector<std::string> script = make_script(batch);
    std::vector<std::string> expected;
    expected.reserve(script.size());
    for (const std::string& request : script) {
      expected.push_back(
          serve::render(reference.answer(serve::parse_request(request))));
    }

    const fs::path root = fs::temp_directory_path() / "repro-bench-serve";
    fs::remove_all(root);
    options.checkpoint.directory = (root / "ckpt").string();
    MetricsRegistry metrics;
    options.metrics = &metrics;
    scenario::StreamOptions stream;
    stream.epochs = kEpochs;
    stream.wal_dir = (root / "wal").string();

    std::atomic<bool> stop{false};
    std::atomic<std::uint16_t> port{0};
    scenario::ServeRunOptions run;
    run.server.workers = 2;
    run.server.admission_capacity = 4;
    run.server.request_deadline_ms = kDeadlineMs;
    run.server.enable_debug_commands = true;  // the overload phase's seam
    run.on_ready = [&](std::uint16_t p) {
      port.store(p, std::memory_order_release);
    };
    run.stop = &stop;
    run.poll_ms = 10;

    scenario::ServeOutcome outcome;
    std::thread daemon{[&] {
      outcome = scenario::serve_streaming_dataset(options, stream, run);
    }};

    // --- Phase 1: latency under concurrent ingest ------------------------
    // Clients hammer the daemon from the moment the first epoch lands
    // until the final epoch's view is live; the pipeline is enriching
    // and re-clustering underneath the whole time.
    while (port.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const std::uint16_t p = port.load(std::memory_order_acquire);
    const std::string final_health =
        "OK 1\nserving epoch=" + std::to_string(kEpochs) + " ";
    std::atomic<bool> final_epoch_live{false};
    std::mutex latency_mutex;
    std::vector<double> latencies_ms;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<double> local;
        while (!final_epoch_live.load(std::memory_order_acquire)) {
          Client client{p};
          if (!client.connected()) continue;
          for (std::size_t i = 0; i < script.size(); ++i) {
            const std::string& request = script[(i + c) % script.size()];
            const clock_type::time_point start = clock_type::now();
            const std::string reply = client.ask(request);
            if (reply.empty()) break;  // shed or drained — reconnect
            local.push_back(
                std::chrono::duration<double, std::milli>(clock_type::now() -
                                                          start)
                    .count());
            if (request == "health" &&
                reply.rfind(final_health, 0) == 0) {
              final_epoch_live.store(true, std::memory_order_release);
            }
          }
        }
        const std::lock_guard lock{latency_mutex};
        latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
      });
    }
    for (std::thread& t : clients) t.join();

    // --- Phase 2: the byte-identity gate ---------------------------------
    // With the final epoch live, every reply of the script must match
    // the batch-built reference render exactly.
    std::size_t byte_mismatches = 0;
    {
      Client session{p};
      for (std::size_t i = 0; i < script.size(); ++i) {
        if (session.ask(script[i]) != expected[i]) ++byte_mismatches;
      }
    }

    // --- Phase 3: forced overload ----------------------------------------
    // Park every worker past the deadline, then flood the admission
    // queue: the daemon must degrade through its typed paths.
    {
      std::vector<std::unique_ptr<Client>> parked;
      for (std::size_t i = 0; i < run.server.workers; ++i) {
        parked.push_back(std::make_unique<Client>(p));
        (void)parked.back()->send_raw(
            "slow " + std::to_string(kDeadlineMs + 500) + "\n");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      std::vector<std::unique_ptr<Client>> flood;
      for (std::size_t i = 0; i < run.server.admission_capacity + 3; ++i) {
        flood.push_back(std::make_unique<Client>(p));
        (void)flood.back()->send_raw("health\n");
      }
      // Read-then-hang-up, one connection at a time: a served
      // connection camps its worker until the client closes, so each
      // close is what frees a worker to pop the next queued one.
      for (auto& client : parked) {
        (void)client->read_response();
        client.reset();
      }
      for (auto& client : flood) {
        (void)client->read_response();
        client.reset();
      }
    }

    stop.store(true, std::memory_order_relaxed);
    daemon.join();

    // --- Report ----------------------------------------------------------
    std::sort(latencies_ms.begin(), latencies_ms.end());
    const double p50 = percentile_ms(latencies_ms, 0.50);
    const double p99 = percentile_ms(latencies_ms, 0.99);
    const serve::ServeReport& serve_report = outcome.serve;

    TextTable latency{{"measure", "value"}};
    std::ostringstream p50_text, p99_text;
    p50_text.precision(3);
    p50_text << std::fixed << p50 << " ms";
    p99_text.precision(3);
    p99_text << std::fixed << p99 << " ms";
    latency.add_row({"requests measured (during ingest)",
                     std::to_string(latencies_ms.size())});
    latency.add_row({"latency p50", p50_text.str()});
    latency.add_row({"latency p99", p99_text.str()});
    std::cout << latency.render() << "\n";

    TextTable counters_table{{"serve counter", "value"}};
    counters_table.add_row(
        {"epoch swaps", std::to_string(serve_report.epoch_swaps)});
    counters_table.add_row(
        {"connections accepted", std::to_string(serve_report.accepted)});
    counters_table.add_row(
        {"requests", std::to_string(serve_report.requests)});
    counters_table.add_row(
        {"replies OK", std::to_string(serve_report.replies_ok)});
    counters_table.add_row(
        {"replies ERR", std::to_string(serve_report.replies_err)});
    counters_table.add_row(
        {"BUSY sheds", std::to_string(serve_report.busy_sheds)});
    counters_table.add_row(
        {"typed timeouts", std::to_string(serve_report.timeouts)});
    counters_table.add_row(
        {"client disconnects", std::to_string(serve_report.disconnects)});
    std::cout << counters_table.render() << "\n";

    std::cout << (byte_mismatches == 0
                      ? "live replies byte-identical to the batch-built "
                        "view: yes\n"
                      : "live replies byte-identical to the batch-built "
                        "view: NO (BUG)\n");
    bench::print_degradation(outcome.dataset);

    const auto counters = metrics.counter_values(Channel::kDeterministic);
    std::ostringstream json;
    json.precision(3);
    json << std::fixed << "{\n  \"bench\": \"serve\",\n"
         << "  \"seed\": " << options.seed << ",\n"
         << "  \"scale\": " << options.scale << ",\n"
         << "  \"epochs\": " << kEpochs << ",\n"
         << "  \"clients\": " << kClients << ",\n"
         << "  \"deadline_ms\": " << kDeadlineMs << ",\n"
         << "  \"requests_measured\": " << latencies_ms.size() << ",\n"
         << "  \"latency_p50_ms\": " << p50 << ",\n"
         << "  \"latency_p99_ms\": " << p99 << ",\n"
         << "  \"byte_mismatches\": " << byte_mismatches << ",\n"
         << "  \"replies_ok\": " << serve_report.replies_ok << ",\n"
         << "  \"replies_err\": " << serve_report.replies_err << ",\n"
         << "  \"busy_sheds\": " << serve_report.busy_sheds << ",\n"
         << "  \"timeouts\": " << serve_report.timeouts << ",\n"
         << "  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
      if (!gated(name)) continue;
      json << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
      first = false;
    }
    json << "\n  }\n}\n";
    std::ofstream out{out_path, std::ios::binary};
    if (!out) {
      throw IoError("bench_serve: cannot open " + out_path + " for writing");
    }
    out << json.str();
    std::cout << "wrote " << out_path << "\n";

    fs::remove_all(root);
    if (byte_mismatches != 0) return 1;
    if (!check_path.empty()) {
      std::map<std::string, std::uint64_t> measured;
      for (const auto& [name, value] : counters) {
        if (gated(name)) measured[name] = value;
      }
      bool ok = bench::rows_match_table(
          "ABL-11", measured, bench::read_counter_table(check_path, "ABL-11"));
      if (serve_report.timeouts == 0) {
        std::cerr << "ABL-11 gate: the overload phase produced no typed "
                     "TIMEOUT\n";
        ok = false;
      }
      if (serve_report.busy_sheds == 0) {
        std::cerr << "ABL-11 gate: the overload phase produced no BUSY "
                     "shed\n";
        ok = false;
      }
      if (p99 > static_cast<double>(kDeadlineMs)) {
        // The tolerance band: completed replies slower than the deadline
        // would have been typed TIMEOUTs, so this only trips when the
        // deadline machinery itself broke.
        std::cerr << "ABL-11 gate: measured p99 " << p99
                  << " ms exceeds the request deadline\n";
        ok = false;
      }
      if (!ok) {
        std::cerr << "bench_serve: serving gate failed — if a deterministic "
                     "counter drifted, update the ABL-11 table in "
                     "EXPERIMENTS.md alongside the change\n";
        return 1;
      }
      std::cout << "ABL-11 gate: deterministic counters, byte identity, "
                   "overload paths and the latency band all hold\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
}
