// CLI driver: builds the paper dataset end-to-end and exports it.
//
// One-shot batch build by default; `--epochs N --wal-dir DIR` switches
// to the durable streaming epoch loop (crash-safe WAL + epoch
// checkpoints — kill this process at any point and rerun the same
// command to resume; the exports come out byte-identical either way).
// The batch build does not checkpoint: the durable one-shot build is
// `--epochs 1 --wal-dir DIR --checkpoint-dir DIR`.
//
//   build_paper_dataset --scale 0.25 --threads 8
//       --faults paper --checkpoint-dir ckpt --epochs 4 --wal-dir wal
//       --export-dir out --metrics-out metrics.json --report
//
// Exit status: 0 on success, 2 on a usage error, 1 on any pipeline
// failure. `--kill-after-records N` is the crash-loop harness's seam:
// the process SIGKILLs itself after the Nth durable WAL append.

#include <csignal>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "cluster/backend.hpp"
#include "fault/plan.hpp"
#include "io/csv_export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/landscape_report.hpp"
#include "scenario/paper.hpp"
#include "scenario/stream.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace {

using repro::scenario::Dataset;

struct CliOptions {
  repro::scenario::ScenarioOptions scenario;
  repro::scenario::StreamOptions stream;
  bool streaming = false;
  std::uint64_t kill_after_records = 0;
  std::string export_dir;
  std::string metrics_out;
  std::string trace_out;
  bool report = false;
};

void usage(std::ostream& os) {
  os << "usage: build_paper_dataset [options]\n"
        "  --seed N               scenario seed (default 2008)\n"
        "  --scale X              event-rate scale (default 1.0)\n"
        "  --threads N            pool width, 0 = hardware (default 0)\n"
        "  --cluster-backend B    B-clustering backend: lsh, exact, or\n"
        "                         kmeans (default lsh)\n"
        "  --faults none|paper    fault-injection plan (default none)\n"
        "  --checkpoint-dir DIR   streaming mode: crash-safe epoch cuts"
        " (with --wal-dir;\n"
        "                         --epochs 1 is the durable one-shot"
        " build)\n"
        "  --epochs N             streaming mode: epoch batches (with"
        " --wal-dir)\n"
        "  --wal-dir DIR          streaming mode: WAL segment directory\n"
        "  --verify-incremental   streaming mode: also run the full E/P/M/B"
        " recompute\n"
        "                         per epoch and byte-diff it against the"
        " incremental\n"
        "                         results, and re-derive the MD5 of"
        " every\n"
        "                         replayed sample (fails loudly)\n"
        "  --kill-after-records N SIGKILL self after Nth WAL append"
        " (crash harness)\n"
        "  --export-dir DIR       write events/samples/clusters/profiles\n"
        "  --metrics-out FILE     deterministic-channel metrics JSON\n"
        "  --trace-out FILE       wall-clock trace JSON (runtime channel)\n"
        "  --report               print the landscape report\n"
        "  --help                 this text\n";
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  bool have_epochs = false;
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
      have_epochs = true;
    } else if (arg == "--wal-dir") {
      cli.stream.wal_dir = std::string{value()};
    } else if (arg == "--verify-incremental") {
      cli.stream.verify_incremental = true;
    } else if (arg == "--kill-after-records") {
      cli.kill_after_records =
          repro::parse_u64(value(), "--kill-after-records");
    } else if (arg == "--export-dir") {
      cli.export_dir = std::string{value()};
    } else if (arg == "--metrics-out") {
      cli.metrics_out = std::string{value()};
    } else if (arg == "--trace-out") {
      cli.trace_out = std::string{value()};
    } else if (arg == "--report") {
      cli.report = true;
    } else {
      throw repro::ConfigError("unknown option: " + std::string{arg});
    }
  }
  cli.streaming = have_epochs || !cli.stream.wal_dir.empty();
  if (cli.streaming && cli.stream.wal_dir.empty()) {
    throw repro::ConfigError("--epochs requires --wal-dir");
  }
  if (!cli.scenario.checkpoint.directory.empty() && !cli.streaming) {
    throw repro::ConfigError(
        "--checkpoint-dir requires --wal-dir (the batch build does not "
        "checkpoint; use --epochs 1 --wal-dir DIR for a durable one-shot "
        "build)");
  }
  if (cli.kill_after_records != 0 && !cli.streaming) {
    throw repro::ConfigError("--kill-after-records requires --wal-dir");
  }
  if (!cli.streaming && cli.stream.verify_incremental) {
    throw repro::ConfigError("--verify-incremental requires --wal-dir");
  }
  return cli;
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream os{path, std::ios::binary};
  if (!os) throw repro::IoError("cannot open " + path);
  os << contents;
  if (!os.flush()) throw repro::IoError("cannot write " + path);
}

void export_dataset(const std::string& dir, const Dataset& ds) {
  std::filesystem::create_directories(dir);
  const auto open = [&](const char* name) {
    std::ofstream os{std::filesystem::path{dir} / name, std::ios::binary};
    if (!os) {
      throw repro::IoError("cannot open " + (std::filesystem::path{dir} / name)
                                                .string());
    }
    return os;
  };
  {
    auto os = open("events.csv");
    repro::io::write_events_csv(os, ds.db, ds.e, ds.p, ds.m, ds.b);
  }
  {
    auto os = open("samples.csv");
    repro::io::write_samples_csv(os, ds.db, ds.b);
  }
  {
    auto os = open("clusters_e.csv");
    repro::io::write_clusters_csv(os, ds.e);
  }
  {
    auto os = open("clusters_p.csv");
    repro::io::write_clusters_csv(os, ds.p);
  }
  {
    auto os = open("clusters_m.csv");
    repro::io::write_clusters_csv(os, ds.m);
  }
  {
    auto os = open("profiles.jsonl");
    repro::io::write_profiles_jsonl(os, ds.db);
  }
}

int run(int argc, char** argv) {
  CliOptions cli = parse_cli(argc, argv);

  repro::obs::MetricsRegistry metrics;
  repro::obs::TraceRecorder trace;
  if (!cli.metrics_out.empty()) cli.scenario.metrics = &metrics;
  if (!cli.trace_out.empty() || cli.report) {
    cli.scenario.metrics = cli.scenario.metrics != nullptr
                               ? cli.scenario.metrics
                               : &metrics;
    cli.scenario.trace = &trace;
  }
  if (cli.report) cli.scenario.metrics = &metrics;

  if (cli.kill_after_records != 0) {
    const std::uint64_t at = cli.kill_after_records;
    cli.stream.after_append = [at](std::uint64_t appended) {
      if (appended >= at) {
        // The whole point: die without unwinding. The WAL append
        // before us is in the page cache, which a process kill keeps
        // (a power cut would not: tools/crash_loop_stress.sh simulates
        // that by truncating the open segment).
        ::kill(::getpid(), SIGKILL);
        ::_exit(137);  // unreachable unless SIGKILL is blocked
      }
    };
  }

  const Dataset ds =
      cli.streaming
          ? repro::scenario::build_streaming_dataset(cli.scenario, cli.stream)
          : repro::scenario::build_paper_dataset(cli.scenario);

  if (cli.stream.verify_incremental) {
    std::cout << "verify-incremental: " << ds.ingest.epochs_verified
              << " epoch(s) byte-identical to the full recompute\n";
  }
  if (!cli.export_dir.empty()) export_dataset(cli.export_dir, ds);
  if (!cli.metrics_out.empty()) {
    write_file(cli.metrics_out,
               metrics.to_json(repro::obs::Channel::kDeterministic));
  }
  if (!cli.trace_out.empty()) {
    write_file(cli.trace_out, trace.to_json(&metrics));
  }
  if (cli.report) {
    repro::report::LandscapeReportOptions report_options;
    report_options.origin = ds.landscape.start_time;
    report_options.weeks = ds.landscape.weeks;
    std::cout << repro::report::landscape_report(ds.db, ds.e, ds.p, ds.m,
                                                 ds.b, report_options)
              << '\n'
              << metrics.render_summary() << '\n';
  }
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
