// ABL-8 — deterministic parallel processing pipeline. The deployment
// stage is inherently sequential (one shared RNG stream consumed in
// chronological order), so this harness runs it exactly once and then
// replays the paper's Section-3 processing pipeline — enrichment plus
// the four clusterings (E, P, M, B) — over copies of that pristine
// database at pool widths 1, 2, 4 and 8. Reports wall time and speedup
// per width and verifies the full CSV export is byte-identical to the
// width-1 run at every width; any divergence is a bug and fails the
// harness. The scaling gate (>= 2.5x at 4+ threads) is enforced only
// when the machine actually has 4+ hardware threads — byte-identity is
// checked unconditionally.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/bview.hpp"
#include "bench_common.hpp"
#include "cluster/epm.hpp"
#include "cluster/feature.hpp"
#include "honeypot/deployment.hpp"
#include "honeypot/enrichment.hpp"
#include "io/csv_export.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

/// The processing pipeline's outputs for one width.
struct PipelineRun {
  repro::honeypot::EventDatabase db;
  repro::cluster::EpmResult e;
  repro::cluster::EpmResult p;
  repro::cluster::EpmResult m;
  repro::analysis::BehavioralView b;
  double seconds = 0.0;
};

std::string all_csv(const PipelineRun& run) {
  std::ostringstream out;
  repro::io::write_events_csv(out, run.db, run.e, run.p, run.m, run.b);
  repro::io::write_samples_csv(out, run.db, run.b);
  repro::io::write_clusters_csv(out, run.e);
  repro::io::write_clusters_csv(out, run.p);
  repro::io::write_clusters_csv(out, run.m);
  return out.str();
}

}  // namespace

int main() {
  using namespace repro;
  using clock = std::chrono::steady_clock;

  const scenario::ScenarioOptions options = bench::options_from_env();
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "### ABL-8: processing-pipeline scaling with pool width\n"
            << "(seed " << options.seed << ", scale " << options.scale
            << ", hardware threads " << hw
            << "; one deployment, then enrichment + E/P/M/B per width)\n\n";

  // One sequential deployment; its database is the immutable input
  // every width starts from.
  const malware::Landscape landscape = scenario::make_paper_landscape(options);
  const sandbox::Environment environment =
      scenario::make_paper_environment(landscape);
  honeypot::DeploymentConfig config;
  config.seed = options.seed;
  config.download.truncation_probability = 0.14;  // paper calibration
  honeypot::EventDatabase pristine;
  honeypot::Deployment{landscape, config}.drain_into(pristine);
  std::cout << "deployment done: " << pristine.samples().size()
            << " samples, " << pristine.events().size() << " events\n\n";

  const auto run_width = [&](std::size_t width) {
    PipelineRun run;
    run.db = pristine;  // copy outside the timed region
    ThreadPool pool{width};
    const clock::time_point start = clock::now();
    (void)honeypot::enrich_database(run.db, landscape, environment,
                                    /*faults=*/nullptr, &pool);
    std::vector<std::function<void()>> tasks;
    tasks.emplace_back([&] {
      run.e = cluster::epm_cluster(cluster::build_epsilon_data(run.db));
    });
    tasks.emplace_back(
        [&] { run.p = cluster::epm_cluster(cluster::build_pi_data(run.db)); });
    tasks.emplace_back(
        [&] { run.m = cluster::epm_cluster(cluster::build_mu_data(run.db)); });
    tasks.emplace_back([&] {
      cluster::BehavioralOptions behavioral;
      behavioral.threshold = options.b_threshold;
      behavioral.pool = &pool;
      run.b = analysis::BehavioralView::build(run.db, behavioral);
    });
    pool.run_tasks(tasks);
    run.seconds = std::chrono::duration<double>(clock::now() - start).count();
    return run;
  };

  const PipelineRun baseline = run_width(1);
  const std::string baseline_csv = all_csv(baseline);

  TextTable table{{"threads", "wall time", "speedup", "export"}};
  const auto row = [&](std::size_t width, const PipelineRun& run,
                       bool identical) {
    std::ostringstream secs, speedup;
    secs.precision(3);
    secs << std::fixed << run.seconds << " s";
    speedup.precision(2);
    speedup << std::fixed << baseline.seconds / run.seconds << "x";
    table.add_row({std::to_string(width), secs.str(), speedup.str(),
                   identical ? "identical" : "DIVERGED"});
  };
  row(1, baseline, true);

  bool all_identical = true;
  double best_wide_speedup = 0.0;
  for (const std::size_t width : {std::size_t{2}, std::size_t{4},
                                  std::size_t{8}}) {
    const PipelineRun run = run_width(width);
    const bool identical = all_csv(run) == baseline_csv;
    all_identical = all_identical && identical;
    if (width >= 4) {
      best_wide_speedup =
          std::max(best_wide_speedup, baseline.seconds / run.seconds);
    }
    row(width, run, identical);
  }
  std::cout << table.render() << "\n";

  std::cout << (all_identical
                    ? "exports byte-identical at every width: yes\n"
                    : "exports byte-identical at every width: NO (BUG)\n");
  if (!all_identical) return 1;

  // The scaling gate needs actual cores to mean anything; a 1-CPU box
  // still proves determinism above but cannot prove speedup.
  if (hw >= 4) {
    std::cout << "best speedup at 4+ threads: " << best_wide_speedup
              << "x (gate: >= 2.5x)\n";
    if (best_wide_speedup < 2.5) return 1;
  } else {
    std::cout << "scaling gate skipped: " << hw
              << " hardware thread(s) < 4\n";
  }
  return 0;
}
