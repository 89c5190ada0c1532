// End-to-end pipeline bench with machine-readable output.
//
// Runs build_paper_dataset with the observability layer attached and
// writes BENCH_PIPELINE.json: peak RSS and every deterministic work
// counter. Per-stage wall times come from bench/e2e's traced batch
// workload. The RSS is a machine artifact; the counters are pure
// functions of (seed, scale, faults) and double as a drift gate:
//
//   $ bench_pipeline --check ../EXPERIMENTS.md
//
// compares the counters against the ABL-9 table and fails (exit 1)
// when they differ — so a change to the pipeline's deterministic work
// must come with a committed update to EXPERIMENTS.md.
//
//   REPRO_BENCH_SCALE=0.25 ./bench_pipeline [--check <EXPERIMENTS.md>]
//                                           [--out <file.json>]
#include <cctype>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_common.hpp"
#include "obs/metrics.hpp"

namespace {

using repro::obs::Channel;
using repro::obs::MetricsRegistry;

long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;
#endif
  return 0;
}

/// The `| `name` | value |` rows of the ABL-9 section of EXPERIMENTS.md.
std::map<std::string, std::uint64_t> read_abl9_table(
    const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw repro::IoError("bench_pipeline: cannot open " + path);
  }
  std::map<std::string, std::uint64_t> table;
  std::string line;
  bool in_section = false;
  while (std::getline(in, line)) {
    if (line.rfind("#", 0) == 0) {
      in_section = line.find("ABL-9") != std::string::npos;
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
    while (end < line.size() && std::isdigit(
               static_cast<unsigned char>(line[end])) != 0) {
      ++end;
    }
    if (end == begin) continue;
    table[name] = repro::parse_u64(line.substr(begin, end - begin),
                                   "ABL-9 counter " + name);
  }
  return table;
}

/// Strict two-way comparison; prints every discrepancy.
bool counters_match_table(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters,
    const std::map<std::string, std::uint64_t>& table) {
  bool ok = true;
  std::map<std::string, std::uint64_t> measured;
  for (const auto& [name, value] : counters) measured[name] = value;
  for (const auto& [name, value] : measured) {
    const auto it = table.find(name);
    if (it == table.end()) {
      std::cerr << "ABL-9 gate: counter '" << name << "' (= " << value
                << ") is missing from the table\n";
      ok = false;
    } else if (it->second != value) {
      std::cerr << "ABL-9 gate: counter '" << name << "' measured " << value
                << " but the table says " << it->second << "\n";
      ok = false;
    }
  }
  for (const auto& [name, value] : table) {
    if (measured.count(name) == 0) {
      std::cerr << "ABL-9 gate: table row '" << name
                << "' was not produced by this run\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  std::string check_path;
  std::string out_path = "BENCH_PIPELINE.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_pipeline [--check <EXPERIMENTS.md>] "
                   "[--out <file.json>]\n";
      return 2;
    }
  }

  try {
    const scenario::ScenarioOptions base = bench::options_from_env();
    scenario::ScenarioOptions options = base;
    MetricsRegistry metrics;
    options.metrics = &metrics;

    std::cout << "### pipeline bench (seed " << options.seed << ", scale "
              << options.scale
              << (options.faults.empty() ? "" : ", fault injection ON")
              << ")\n";
    const scenario::Dataset dataset = scenario::build_paper_dataset(options);

    std::ostringstream json;
    json << "{\n  \"bench\": \"pipeline\",\n"
         << "  \"seed\": " << options.seed << ",\n"
         << "  \"scale\": " << options.scale << ",\n"
         << "  \"peak_rss_kib\": " << peak_rss_kib() << ",\n"
         << "  \"counters\": {";
    const auto counters = metrics.counter_values(Channel::kDeterministic);
    bool first = true;
    for (const auto& [name, value] : counters) {
      json << (first ? "\n" : ",\n") << "    \"" << name
           << "\": " << value;
      first = false;
    }
    json << "\n  }\n}\n";

    std::ofstream out{out_path, std::ios::binary};
    if (!out) {
      throw IoError("bench_pipeline: cannot open " + out_path +
                    " for writing");
    }
    out << json.str();
    std::cout << "wrote " << out_path << "\n";
    std::cout << "  peak RSS: " << peak_rss_kib() << " KiB\n";
    bench::print_degradation(dataset);

    if (!check_path.empty()) {
      const auto table = read_abl9_table(check_path);
      if (!counters_match_table(counters, table)) {
        std::cerr << "bench_pipeline: deterministic work counters drifted — "
                     "update the ABL-9 table in EXPERIMENTS.md alongside the "
                     "change\n";
        return 1;
      }
      std::cout << "ABL-9 gate: " << counters.size()
                << " counters match EXPERIMENTS.md\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
}
