// ABL-10 — cost and equivalence of the durable streaming ingest path.
//
// Builds the same dataset four ways: the one-shot batch build, the
// streaming epoch loop writing a cold WAL + epoch checkpoints, a warm
// rerun restoring the final epoch cut, and a verify run that also
// recomputes every epoch's clustering from scratch. Reports wall time
// per mode, the per-epoch incremental vs full clustering cost, the
// WAL's on-disk footprint, and the ingest work counters (appends,
// rotations, recovery, backpressure), verifies all four exports are
// byte-identical, and writes BENCH_STREAM.json. The
// ingest counters are pure functions of (seed, scale, epochs), so —
// like ABL-9 — they double as a drift gate:
//
//   $ bench_abl_stream --check ../EXPERIMENTS.md
//
// fails (exit 1) when the measured `ingest.*` / `fault.delivery.*`
// counters differ from the ABL-10 table, forcing a committed
// EXPERIMENTS.md update alongside any streaming-path change.
//
//   REPRO_BENCH_SCALE=0.25 ./bench_abl_stream [--check <EXPERIMENTS.md>]
//                                             [--out <file.json>]
#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "io/csv_export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/stream.hpp"
#include "util/table.hpp"

namespace {

using repro::obs::Channel;
using repro::obs::MetricsRegistry;

std::string all_csv(const repro::scenario::Dataset& ds) {
  std::ostringstream out;
  repro::io::write_events_csv(out, ds.db, ds.e, ds.p, ds.m, ds.b);
  repro::io::write_samples_csv(out, ds.db, ds.b);
  repro::io::write_clusters_csv(out, ds.e);
  repro::io::write_clusters_csv(out, ds.p);
  repro::io::write_clusters_csv(out, ds.m);
  return out.str();
}

/// The streaming-layer counters the ABL-10 gate is stated over (the
/// rest of the deterministic channel is already pinned by ABL-9), plus
/// the two incremental-clustering work counters. Over one cold process
/// all of them are pure functions of (seed, scale, epochs), so drift
/// means the flip or cache logic changed.
bool gated(const std::string& name) {
  return name.rfind("ingest.", 0) == 0 ||
         name.rfind("fault.delivery.", 0) == 0 ||
         name == "epm.instances_reclassified" ||
         name == "cluster.signatures_reused";
}

/// Wall milliseconds of every span named `name`, in creation order —
/// for the per-epoch spans that is epoch order.
std::vector<double> span_ms(const repro::obs::TraceRecorder& trace,
                            std::string_view name) {
  std::vector<double> out;
  for (const auto& span : trace.spans()) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.duration_ns()) / 1e6);
    }
  }
  return out;
}

/// The `| `name` | value |` rows of the ABL-10 section of EXPERIMENTS.md.
std::map<std::string, std::uint64_t> read_abl10_table(
    const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw repro::IoError("bench_abl_stream: cannot open " + path);
  }
  std::map<std::string, std::uint64_t> table;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line.find("ABL-10") != std::string::npos;
      continue;
    }
    if (!in_section || line.rfind("|", 0) != 0) continue;
    const std::size_t tick_open = line.find('`');
    if (tick_open == std::string::npos) continue;
    const std::size_t tick_close = line.find('`', tick_open + 1);
    if (tick_close == std::string::npos) continue;
    const std::string name =
        line.substr(tick_open + 1, tick_close - tick_open - 1);
    const std::size_t bar = line.find('|', tick_close);
    if (bar == std::string::npos) continue;
    std::size_t begin = bar + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    std::size_t end = begin;
    while (end < line.size() &&
           std::isdigit(static_cast<unsigned char>(line[end])) != 0) {
      ++end;
    }
    if (end == begin) continue;
    table[name] = repro::parse_u64(line.substr(begin, end - begin),
                                   "ABL-10 counter " + name);
  }
  return table;
}

bool counters_match_table(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::map<std::string, std::uint64_t>& table) {
  bool ok = true;
  std::map<std::string, std::uint64_t> measured;
  for (const auto& [name, value] : counters) {
    if (gated(name)) measured[name] = value;
  }
  for (const auto& [name, value] : measured) {
    const auto it = table.find(name);
    if (it == table.end()) {
      std::cerr << "ABL-10 gate: counter '" << name << "' (= " << value
                << ") is missing from the table\n";
      ok = false;
    } else if (it->second != value) {
      std::cerr << "ABL-10 gate: counter '" << name << "' measured " << value
                << " but the table says " << it->second << "\n";
      ok = false;
    }
  }
  for (const auto& [name, value] : table) {
    if (measured.count(name) == 0) {
      std::cerr << "ABL-10 gate: table row '" << name
                << "' was not produced by this run\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  namespace fs = std::filesystem;
  using clock = std::chrono::steady_clock;

  std::string check_path;
  std::string out_path = "BENCH_STREAM.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_abl_stream [--check <EXPERIMENTS.md>] "
                   "[--out <file.json>]\n";
      return 2;
    }
  }

  try {
    const scenario::ScenarioOptions base = bench::options_from_env();
    std::cout << "### ABL-10: streaming ingest vs one-shot batch\n"
              << "(seed " << base.seed << ", scale " << base.scale
              << (base.faults.empty() ? "" : ", fault injection ON")
              << "; batch build, then the WAL + epoch loop...)\n\n";

    const fs::path root = fs::temp_directory_path() / "repro-abl-stream";
    fs::remove_all(root);

    struct Timed {
      double seconds = 0.0;
      scenario::Dataset dataset;
    };
    const auto timed = [](auto&& build) {
      const clock::time_point start = clock::now();
      Timed result{0.0, build()};
      result.seconds =
          std::chrono::duration<double>(clock::now() - start).count();
      return result;
    };

    const Timed batch =
        timed([&] { return scenario::build_paper_dataset(base); });

    scenario::ScenarioOptions streamed = base;
    streamed.checkpoint.directory = (root / "ckpt").string();
    scenario::StreamOptions stream;
    stream.wal_dir = (root / "wal").string();
    // The incremental win compounds with epoch count — each epoch the
    // full recompute re-clusters the whole history while the
    // incremental path absorbs only the delta — so the ABL-10
    // landscape runs a longer 8-epoch stream to expose the tail.
    stream.epochs = 8;
    MetricsRegistry cold_metrics;
    obs::TraceRecorder cold_trace;
    streamed.metrics = &cold_metrics;
    streamed.trace = &cold_trace;
    const Timed cold = timed(
        [&] { return scenario::build_streaming_dataset(streamed, stream); });
    streamed.metrics = nullptr;
    streamed.trace = nullptr;
    const Timed warm = timed(
        [&] { return scenario::build_streaming_dataset(streamed, stream); });

    // The before/after leg: the same stream under verify mode, which
    // runs the full recompute beside the incremental clustering every
    // epoch (its "epoch.verify" spans) and byte-compares the two.
    // Separate directories so the cold leg's WAL stays intact.
    scenario::ScenarioOptions verify_options = base;
    verify_options.checkpoint.directory = (root / "ckpt-verify").string();
    scenario::StreamOptions verify_stream;
    verify_stream.wal_dir = (root / "wal-verify").string();
    verify_stream.epochs = stream.epochs;
    verify_stream.verify_incremental = true;
    obs::TraceRecorder verify_trace;
    verify_options.trace = &verify_trace;
    MetricsRegistry verify_metrics;
    verify_options.metrics = &verify_metrics;
    const Timed verify = timed([&] {
      return scenario::build_streaming_dataset(verify_options, verify_stream);
    });

    TextTable modes{{"mode", "wall time", "vs batch", "epochs run",
                     "epochs restored"}};
    const auto add_mode = [&](const char* name, const Timed& mode) {
      std::ostringstream secs, ratio;
      secs.precision(2);
      secs << std::fixed << mode.seconds << " s";
      ratio.precision(2);
      ratio << std::fixed << mode.seconds / batch.seconds << "x";
      modes.add_row({name, secs.str(), ratio.str(),
                     std::to_string(mode.dataset.ingest.epochs_run),
                     std::to_string(mode.dataset.ingest.epochs_restored)});
    };
    add_mode("one-shot batch", batch);
    add_mode("streaming (cold WAL)", cold);
    add_mode("streaming (warm restore)", warm);
    add_mode("streaming (verify)", verify);
    std::cout << modes.render() << "\n";

    // Per-epoch: ingest throughput and the clustering cost under both
    // modes. Epoch 1 clusters from scratch either way; the incremental
    // win is epochs >= 2, where only the delta is absorbed.
    const std::vector<double> epoch_wall = span_ms(cold_trace, "stream.epoch");
    const std::vector<double> cluster_inc = span_ms(cold_trace,
                                                    "epoch.cluster");
    const std::vector<double> cluster_full = span_ms(verify_trace,
                                                     "epoch.verify");
    const std::size_t epochs = cluster_inc.size();
    const std::size_t total_events = cold.dataset.db.events().size();
    std::vector<double> epoch_events_per_s;
    std::vector<std::size_t> epoch_events;
    // Aggregate clustering wall over epochs >= 2 under each mode. The
    // per-epoch ratio is noisy on a loaded machine and structurally
    // capped near 1x at epoch 2 (half the rows are new there), so the
    // headline metric is the total epoch.cluster time saved across the
    // whole tail, where the incremental path's advantage compounds.
    double tail_inc_ms = 0.0;
    double tail_full_ms = 0.0;
    TextTable per_epoch{{"epoch", "events", "events/s", "epoch.cluster ms",
                         "full recompute ms", "speedup"}};
    for (std::size_t k = 0; k < epochs; ++k) {
      // Epoch boundaries are record counts k * total / epochs — the
      // same split the loop itself uses.
      const std::size_t end = (k + 1) * total_events / epochs;
      const std::size_t begin = k * total_events / epochs;
      epoch_events.push_back(end - begin);
      const double wall_s =
          k < epoch_wall.size() ? epoch_wall[k] / 1e3 : 0.0;
      epoch_events_per_s.push_back(
          wall_s > 0.0 ? static_cast<double>(end - begin) / wall_s : 0.0);
      const double full_ms = k < cluster_full.size() ? cluster_full[k] : 0.0;
      const double speedup =
          cluster_inc[k] > 0.0 ? full_ms / cluster_inc[k] : 0.0;
      if (k >= 1) {
        tail_inc_ms += cluster_inc[k];
        tail_full_ms += full_ms;
      }
      std::ostringstream events_s, inc_ms, fr_ms, ratio;
      events_s.precision(0);
      events_s << std::fixed << epoch_events_per_s.back();
      inc_ms.precision(2);
      inc_ms << std::fixed << cluster_inc[k];
      fr_ms.precision(2);
      fr_ms << std::fixed << full_ms;
      ratio.precision(2);
      ratio << std::fixed << speedup << "x";
      per_epoch.add_row({std::to_string(k + 1),
                         std::to_string(end - begin), events_s.str(),
                         inc_ms.str(), fr_ms.str(), ratio.str()});
    }
    std::cout << per_epoch.render() << "\n";
    const double speedup_tail =
        tail_inc_ms > 0.0 ? tail_full_ms / tail_inc_ms : 0.0;
    std::ostringstream tail;
    tail.precision(2);
    tail << std::fixed << tail_full_ms << " ms full vs " << tail_inc_ms
         << " ms incremental = " << speedup_tail;
    std::cout << "epoch.cluster wall over epochs >= 2: " << tail.str()
              << "x\n\n";

    std::uintmax_t wal_bytes = 0;
    std::size_t wal_files = 0;
    for (const auto& entry : fs::directory_iterator(root / "wal")) {
      if (!entry.is_regular_file()) continue;
      wal_bytes += entry.file_size();
      ++wal_files;
    }
    const ingest::IngestReport& report = cold.dataset.ingest;
    TextTable wal{{"ingest counter", "value"}};
    wal.add_row({"records appended", std::to_string(report.records_appended)});
    wal.add_row({"frame bytes appended",
                 std::to_string(report.bytes_appended)});
    wal.add_row({"segments sealed", std::to_string(report.segments_sealed)});
    wal.add_row({"records recovered (warm)",
                 std::to_string(warm.dataset.ingest.records_recovered)});
    wal.add_row({"queue pushed", std::to_string(report.queue_pushed)});
    wal.add_row({"queue stalls", std::to_string(report.queue_stalls)});
    wal.add_row({"queue high water", std::to_string(report.queue_high_water)});
    wal.add_row({"WAL on disk", std::to_string(wal_bytes) + " B in " +
                                    std::to_string(wal_files) + " files"});
    std::cout << wal.render() << "\n";

    const bool identical =
        all_csv(batch.dataset) == all_csv(cold.dataset) &&
        all_csv(batch.dataset) == all_csv(warm.dataset) &&
        all_csv(batch.dataset) == all_csv(verify.dataset);
    std::cout << (identical
                      ? "streamed exports byte-identical to batch build: yes\n"
                      : "streamed exports byte-identical to batch build: NO "
                        "(BUG)\n");
    bench::print_degradation(cold.dataset);

    // Signature reuse counts one process's cache hits, so it sits on the
    // runtime channel; the cold leg is a single uninterrupted process,
    // which makes its value a gate like the rest.
    auto counters = cold_metrics.counter_values(Channel::kDeterministic);
    for (const auto& [name, value] :
         cold_metrics.counter_values(Channel::kRuntime)) {
      if (name == "cluster.signatures_reused") counters.emplace_back(name, value);
    }
    std::sort(counters.begin(), counters.end());
    std::ostringstream json;
    json.precision(2);
    json << std::fixed << "{\n  \"bench\": \"abl_stream\",\n"
         << "  \"seed\": " << base.seed << ",\n"
         << "  \"scale\": " << base.scale << ",\n"
         << "  \"batch_wall_s\": " << batch.seconds << ",\n"
         << "  \"stream_cold_wall_s\": " << cold.seconds << ",\n"
         << "  \"stream_warm_wall_s\": " << warm.seconds << ",\n"
         << "  \"stream_verify_wall_s\": " << verify.seconds << ",\n"
         << "  \"cluster_speedup_epoch2_plus\": " << speedup_tail << ",\n";
    const auto array = [&json](const char* key, const auto& values) {
      json << "  \"" << key << "\": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        json << (i == 0 ? "" : ", ") << values[i];
      }
      json << "],\n";
    };
    array("epoch_events", epoch_events);
    array("epoch_events_per_s", epoch_events_per_s);
    array("epoch_cluster_ms_incremental", cluster_inc);
    array("epoch_cluster_ms_full", cluster_full);
    json << "  \"wal_disk_bytes\": " << wal_bytes << ",\n"
         << "  \"byte_identical\": " << (identical ? "true" : "false")
         << ",\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters) {
      if (!gated(name)) continue;
      json << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
      first = false;
    }
    json << "\n  }\n}\n";
    std::ofstream out{out_path, std::ios::binary};
    if (!out) {
      throw IoError("bench_abl_stream: cannot open " + out_path +
                    " for writing");
    }
    out << json.str();
    std::cout << "wrote " << out_path << "\n";

    fs::remove_all(root);
    if (!identical) return 1;
    if (!check_path.empty()) {
      if (!counters_match_table(counters, read_abl10_table(check_path))) {
        std::cerr << "bench_abl_stream: streaming work counters drifted — "
                     "update the ABL-10 table in EXPERIMENTS.md alongside "
                     "the change\n";
        return 1;
      }
      std::size_t gated_count = 0;
      for (const auto& [name, value] : counters) {
        if (gated(name)) ++gated_count;
      }
      std::cout << "ABL-10 gate: " << gated_count
                << " counters match EXPERIMENTS.md\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
}
