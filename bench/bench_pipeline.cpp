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
#include "gate_table.hpp"
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
      const std::map<std::string, std::uint64_t> measured(counters.begin(),
                                                          counters.end());
      if (!bench::rows_match_table(
              "ABL-9", measured,
              bench::read_counter_table(check_path, "ABL-9"))) {
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
