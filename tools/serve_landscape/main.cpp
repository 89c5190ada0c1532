// CLI driver: the fault-hardened query daemon.
//
// Streams the paper dataset through the durable epoch loop (same WAL +
// epoch-checkpoint machinery as `build_paper_dataset --wal-dir`) while
// answering analyst queries on a loopback TCP port:
//
//   serve_landscape --scale 0.25 --epochs 4 --wal-dir wal
//       --checkpoint-dir ckpt --port 4817 --faults paper
//
// then `printf 'lookup <md5>\n' | nc 127.0.0.1 4817`. Queries answered
// before the first epoch completes get a typed "ERR UNAVAILABLE"; each
// completed epoch is hot-swapped in atomically. After the stream
// finishes the daemon keeps serving the final view until SIGTERM or
// SIGINT, then drains gracefully: stop accepting, answer everything in
// flight and admitted, exit 0. Kill it with SIGKILL instead and rerun —
// the WAL and checkpoints resume the build and the served answers come
// out byte-identical (the kill-anywhere serving guarantee pinned by
// tests/serve_test and bench_serve).
//
// Exit status: 0 on clean shutdown, 2 on a usage error, 1 on failure.

#include <atomic>
#include <csignal>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "cluster/backend.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "scenario/serve.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace {

/// SIGTERM/SIGINT flag; the linger loop in serve_streaming_dataset
/// polls it. Plain store — async-signal-safe by construction.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  // Lone stop flag set from a signal handler; no data is published
  // through it and the linger loop tolerates any store-to-poll delay.
  // repro-lint: allow(RL008) stop flag publishes no data
  g_stop.store(true, std::memory_order_relaxed);
}

struct CliOptions {
  repro::scenario::ScenarioOptions scenario;
  repro::scenario::StreamOptions stream;
  repro::scenario::ServeRunOptions run;
  std::string metrics_out;
  bool once = false;  // exit after the stream completes (no linger)
};

void usage(std::ostream& os) {
  os << "usage: serve_landscape [options]\n"
        "  --seed N               scenario seed (default 2008)\n"
        "  --scale X              event-rate scale (default 1.0)\n"
        "  --threads N            pool width, 0 = hardware (default 0)\n"
        "  --cluster-backend B    B-clustering backend: lsh, exact, or\n"
        "                         kmeans (default lsh)\n"
        "  --faults none|paper    fault plan incl. serve sites"
        " (default none)\n"
        "  --checkpoint-dir DIR   crash-safe epoch snapshots\n"
        "  --epochs N             epoch batches (default 4)\n"
        "  --wal-dir DIR          WAL segment directory (required)\n"
        "  --port N               TCP port, 0 = ephemeral (default 0)\n"
        "  --workers N            serving worker threads (default 2)\n"
        "  --admission N          admission queue capacity (default 16)\n"
        "  --deadline-ms N        per-request budget (default 1000)\n"
        "  --debug-commands       enable the `slow <ms>` bench verb\n"
        "  --once                 exit after the stream (no SIGTERM wait)\n"
        "  --metrics-out FILE     deterministic-channel metrics JSON\n"
        "  --help                 this text\n";
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) {
        throw repro::ConfigError(std::string{arg} + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (arg == "--seed") {
      cli.scenario.seed = repro::parse_u64(value(), "--seed");
    } else if (arg == "--scale") {
      cli.scenario.scale = repro::parse_f64(value(), "--scale");
    } else if (arg == "--threads") {
      cli.scenario.threads =
          static_cast<std::size_t>(repro::parse_u64(value(), "--threads"));
    } else if (arg == "--cluster-backend") {
      cli.scenario.b_backend =
          repro::cluster::backend_from_name(value()).kind();
    } else if (arg == "--faults") {
      const std::string_view plan = value();
      if (plan == "none") {
        cli.scenario.faults = {};
      } else if (plan == "paper") {
        cli.scenario.faults = repro::fault::FaultPlan::paper_calibrated();
      } else {
        throw repro::ConfigError("--faults must be 'none' or 'paper'");
      }
    } else if (arg == "--checkpoint-dir") {
      cli.scenario.checkpoint.directory = std::string{value()};
    } else if (arg == "--epochs") {
      cli.stream.epochs =
          static_cast<std::size_t>(repro::parse_u64(value(), "--epochs"));
    } else if (arg == "--wal-dir") {
      cli.stream.wal_dir = std::string{value()};
    } else if (arg == "--port") {
      cli.run.server.port = repro::parse_u16(value(), "--port");
    } else if (arg == "--workers") {
      cli.run.server.workers =
          static_cast<std::size_t>(repro::parse_u64(value(), "--workers"));
    } else if (arg == "--admission") {
      cli.run.server.admission_capacity =
          static_cast<std::size_t>(repro::parse_u64(value(), "--admission"));
    } else if (arg == "--deadline-ms") {
      cli.run.server.request_deadline_ms =
          repro::parse_i64(value(), "--deadline-ms");
    } else if (arg == "--debug-commands") {
      cli.run.server.enable_debug_commands = true;
    } else if (arg == "--once") {
      cli.once = true;
    } else if (arg == "--metrics-out") {
      cli.metrics_out = std::string{value()};
    } else {
      throw repro::ConfigError("unknown option: " + std::string{arg});
    }
  }
  if (cli.stream.wal_dir.empty()) {
    throw repro::ConfigError("--wal-dir is required");
  }
  return cli;
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream os{path, std::ios::binary};
  if (!os) throw repro::IoError("cannot open " + path);
  os << contents;
  if (!os.flush()) throw repro::IoError("cannot write " + path);
}

int run(int argc, char** argv) {
  CliOptions cli = parse_cli(argc, argv);

  repro::obs::MetricsRegistry metrics;
  if (!cli.metrics_out.empty()) cli.scenario.metrics = &metrics;

  // The daemon's fault sites roll on its own injector: the pipeline
  // underneath attaches one only when a pipeline site can fire (see
  // FaultPlan::pipeline_empty), so serve faults never touch the
  // dataset.
  repro::fault::FaultInjector serve_faults{cli.scenario.faults};
  cli.run.server.faults = &serve_faults;

  struct sigaction action = {};
  action.sa_handler = handle_stop_signal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);

  if (!cli.once) cli.run.stop = &g_stop;
  cli.run.on_ready = [](std::uint16_t port) {
    std::cout << "serving on 127.0.0.1:" << port << std::endl;
  };

  const repro::scenario::ServeOutcome outcome =
      repro::scenario::serve_streaming_dataset(cli.scenario, cli.stream,
                                               cli.run);

  if (!cli.metrics_out.empty()) {
    write_file(cli.metrics_out,
               metrics.to_json(repro::obs::Channel::kDeterministic));
  }
  const repro::serve::ServeReport& sr = outcome.serve;
  std::cerr << "serve: " << sr.requests << " requests, " << sr.replies_ok
            << " ok, " << sr.replies_err << " err, " << sr.busy_sheds
            << " shed, " << sr.timeouts << " timeouts, " << sr.disconnects
            << " disconnects, " << sr.epoch_swaps << " epoch swaps\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const repro::ConfigError& e) {
    std::cerr << "error: " << e.what() << '\n';
    usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
