// ABL-12 — unified quality/cost comparison of the B-clustering
// backends. Every registered backend (lsh, exact, kmeans) partitions
// the same two landscapes:
//
//   * "paper"   — the analyzable samples of the SGNET-equivalent
//                 dataset, scored against ground-truth families;
//   * "planted" — a synthetic corpus with planted behavior families
//                 plus noisy singletons (the ABL-2 shape), scored
//                 against the planted labels.
//
// and one comparable table comes out: quality (precision / recall /
// F-measure / pairwise F1 vs truth, cluster consistency, family
// coherence) and cost (wall ms, peak RSS, deterministic work
// counters). The run also asserts the determinism contract — every
// backend must produce byte-identical assignments at pool widths
// 1, 2 and 8 — and writes BENCH_CLUSTER_BACKENDS.json.
//
//   $ bench_cluster_backends --check ../EXPERIMENTS.md
//
// compares the pinned integer rows against the ABL-12 table and pins
// the LSH-vs-exact agreement (pairwise F1 of one assignment scored
// against the other) above kAgreementFloor; exit 1 on any drift — so
// a change to backend behavior must come with a committed update to
// EXPERIMENTS.md.
//
//   REPRO_BENCH_SCALE=0.25 ./bench_cluster_backends
//       [--check <EXPERIMENTS.md>] [--out <file.json>]
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
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
#include "cluster/backend.hpp"
#include "cluster/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using repro::Rng;
using repro::ThreadPool;
using repro::cluster::BackendKind;
using repro::cluster::BehavioralClusters;
using repro::cluster::BehavioralOptions;
using repro::obs::Channel;
using repro::obs::MetricsRegistry;
using repro::obs::TraceRecorder;
using repro::sandbox::BehavioralProfile;

/// LSH must reproduce the exact single-linkage partition up to rare
/// missed bucket collisions; the agreement gate pins the pairwise F1
/// of one assignment scored against the other above this floor.
constexpr double kAgreementFloor = 0.95;

long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) return usage.ru_maxrss;
#endif
  return 0;
}

std::string fixed_ms(std::int64_t ns) {
  // ns -> "12.345" without floating-point formatting.
  std::ostringstream out;
  out << ns / 1'000'000 << "." << std::setw(3) << std::setfill('0')
      << (ns / 1'000) % 1'000;
  return out.str();
}

/// One clustering input: profiles (owned), stable pointer list, and
/// the reference class of every profile.
struct LandscapeCase {
  std::string name;
  std::vector<BehavioralProfile> storage;  // empty for the paper case
  std::vector<const BehavioralProfile*> profiles;
  std::vector<int> truth;
};

/// Synthetic planted-family corpus — the ABL-2 shape: a few large
/// behavior families plus noisy executions whose extra features push
/// them below the similarity threshold. Noisy items get a unique
/// reference class of their own (they are "unknown", not family
/// members), so truth-side recall is not charged for them.
LandscapeCase make_planted_case(std::size_t n, std::uint64_t seed) {
  LandscapeCase out;
  out.name = "planted";
  Rng rng{seed};
  out.storage.reserve(n);
  const std::size_t families = 12;
  int next_noise_class = static_cast<int>(families);
  for (std::size_t i = 0; i < n; ++i) {
    BehavioralProfile profile;
    const std::size_t family = rng.index(families);
    for (int f = 0; f < 12; ++f) {
      profile.add("fam" + std::to_string(family) + "|" + std::to_string(f));
    }
    if (rng.chance(0.15)) {  // noisy execution -> singleton
      for (int f = 0; f < 8; ++f) {
        profile.add("noise|" + rng.alnum(10));
      }
      out.truth.push_back(next_noise_class++);
    } else {
      out.truth.push_back(static_cast<int>(family));
    }
    out.storage.push_back(std::move(profile));
  }
  out.profiles.reserve(out.storage.size());
  for (const auto& p : out.storage) out.profiles.push_back(&p);
  return out;
}

/// The analyzable samples of the built dataset, in BehavioralView row
/// order, with ground-truth *families* as the reference classes.
LandscapeCase make_paper_case(const repro::scenario::Dataset& ds) {
  LandscapeCase out;
  out.name = "paper";
  for (const auto& sample : ds.db.samples()) {
    if (!sample.profile.has_value()) continue;
    out.profiles.push_back(&*sample.profile);
    out.truth.push_back(static_cast<int>(
        ds.landscape.variant(sample.truth_variant).family));
  }
  return out;
}

/// Multi-member clusters whose members all share one reference class.
std::size_t consistent_clusters(const BehavioralClusters& clusters,
                                const std::vector<int>& truth) {
  std::size_t consistent = 0;
  for (const auto& members : clusters.members) {
    if (members.size() < 2) continue;
    bool pure = true;
    for (const std::size_t row : members) {
      if (truth[row] != truth[members.front()]) {
        pure = false;
        break;
      }
    }
    if (pure) ++consistent;
  }
  return consistent;
}

/// Multi-member reference classes kept together in a single cluster.
std::size_t unfragmented_families(const std::vector<int>& assignment,
                                  const std::vector<int>& truth) {
  struct FamilyState {
    std::size_t size = 0;
    int cluster = -1;
    bool intact = true;
  };
  std::map<int, FamilyState> families;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    FamilyState& state = families[truth[i]];
    if (state.size == 0) {
      state.cluster = assignment[i];
    } else if (state.cluster != assignment[i]) {
      state.intact = false;
    }
    ++state.size;
  }
  std::size_t unfragmented = 0;
  for (const auto& [family, state] : families) {
    if (state.size >= 2 && state.intact) ++unfragmented;
  }
  return unfragmented;
}

/// Pairwise F1 with non-finite results (degenerate partitions) pinned
/// to zero so the integer table row is always defined.
std::uint64_t f1_milli(double pairwise_f1) {
  if (!std::isfinite(pairwise_f1)) return 0;
  return static_cast<std::uint64_t>(pairwise_f1 * 1000.0 + 0.5);
}

/// One backend x landscape measurement.
struct BackendResult {
  std::string landscape;
  std::string backend;
  std::size_t items = 0;
  BehavioralClusters clusters;
  repro::cluster::QualityMetrics quality;
  std::size_t consistent = 0;
  std::size_t unfragmented = 0;
  std::int64_t wall_ns = 0;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

BackendResult run_backend(const LandscapeCase& input, BackendKind kind,
                          TraceRecorder& trace) {
  BackendResult result;
  result.landscape = input.name;
  result.backend = std::string{repro::cluster::backend_name(kind)};
  result.items = input.profiles.size();

  MetricsRegistry metrics;
  BehavioralOptions options;
  options.backend = kind;
  options.metrics = &metrics;
  {
    const TraceRecorder::Scoped span{
        &trace, result.landscape + "." + result.backend};
    result.clusters = repro::cluster::cluster_profiles(input.profiles,
                                                       options);
  }

  // Determinism contract: byte-identical assignments at widths 2 and 8.
  for (const std::size_t width : {2u, 8u}) {
    ThreadPool pool{width};
    BehavioralOptions wide = options;
    wide.metrics = nullptr;
    wide.pool = &pool;
    const BehavioralClusters check =
        repro::cluster::cluster_profiles(input.profiles, wide);
    if (check.assignment != result.clusters.assignment) {
      throw repro::ConfigError(
          "ABL-12: backend '" + result.backend + "' on landscape '" +
          input.name + "' is not width-invariant at pool width " +
          std::to_string(width));
    }
  }

  result.quality = repro::cluster::evaluate_clustering(
      result.clusters.assignment, input.truth);
  result.consistent = consistent_clusters(result.clusters, input.truth);
  result.unfragmented =
      unfragmented_families(result.clusters.assignment, input.truth);
  result.counters = metrics.counter_values(Channel::kDeterministic);

  const auto spans = trace.spans();
  result.wall_ns = spans.back().duration_ns();
  return result;
}

/// Pinned integer rows for the EXPERIMENTS.md gate:
///   b.<landscape>.<backend>.{clusters,singletons,consistent_clusters,
///                            unfragmented_families,f1_milli}
std::map<std::string, std::uint64_t> pinned_rows(
    const std::vector<BackendResult>& results) {
  std::map<std::string, std::uint64_t> rows;
  for (const BackendResult& r : results) {
    const std::string prefix = "b." + r.landscape + "." + r.backend + ".";
    rows[prefix + "clusters"] = r.clusters.cluster_count();
    rows[prefix + "singletons"] = r.clusters.singleton_count();
    rows[prefix + "consistent_clusters"] = r.consistent;
    rows[prefix + "unfragmented_families"] = r.unfragmented;
    rows[prefix + "f1_milli"] = f1_milli(r.quality.pairwise_f1);
  }
  return rows;
}

/// Pairwise F1 of the LSH assignment scored against the exact one —
/// 1.0 when the partitions are identical up to relabeling.
double agreement_f1(const BackendResult& lsh, const BackendResult& exact) {
  return repro::cluster::evaluate_clustering(lsh.clusters.assignment,
                                             exact.clusters.assignment)
      .pairwise_f1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  std::string check_path;
  std::string out_path = "BENCH_CLUSTER_BACKENDS.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_cluster_backends [--check <EXPERIMENTS.md>] "
                   "[--out <file.json>]\n";
      return 2;
    }
  }

  try {
    const scenario::Dataset ds = bench::build_dataset(
        "ABL-12: B-clustering backend quality/cost comparison");
    const scenario::ScenarioOptions options = bench::options_from_env();

    std::vector<LandscapeCase> cases;
    cases.push_back(make_paper_case(ds));
    cases.push_back(make_planted_case(
        std::max<std::size_t>(64,
                              static_cast<std::size_t>(2000 * options.scale)),
        options.seed));

    TraceRecorder trace;
    std::vector<BackendResult> results;
    for (const LandscapeCase& input : cases) {
      for (const BackendKind kind : cluster::all_backends()) {
        results.push_back(run_backend(input, kind, trace));
      }
    }

    TextTable table{{"landscape", "backend", "items", "clusters",
                     "singletons", "precision", "recall", "F1 (pairs)",
                     "consistent", "unfragmented", "wall ms"}};
    for (const BackendResult& r : results) {
      table.add_row({r.landscape, r.backend, std::to_string(r.items),
                     std::to_string(r.clusters.cluster_count()),
                     std::to_string(r.clusters.singleton_count()),
                     fixed(r.quality.precision, 3),
                     fixed(r.quality.recall, 3),
                     fixed(r.quality.pairwise_f1, 3),
                     std::to_string(r.consistent),
                     std::to_string(r.unfragmented), fixed_ms(r.wall_ns)});
    }
    std::cout << table.render();

    // LSH-vs-exact agreement per landscape (1.000 = identical
    // partitions up to relabeling).
    std::map<std::string, double> agreement;
    for (const LandscapeCase& input : cases) {
      const BackendResult* lsh = nullptr;
      const BackendResult* exact = nullptr;
      for (const BackendResult& r : results) {
        if (r.landscape != input.name) continue;
        if (r.backend == "lsh") lsh = &r;
        if (r.backend == "exact") exact = &r;
      }
      agreement[input.name] = agreement_f1(*lsh, *exact);
      std::cout << "agreement(" << input.name << "): lsh vs exact pairwise F1 "
                << fixed(agreement[input.name], 4) << "\n";
    }

    std::ostringstream json;
    json << "{\n  \"bench\": \"cluster_backends\",\n"
         << "  \"seed\": " << options.seed << ",\n"
         << "  \"scale\": " << options.scale << ",\n"
         << "  \"peak_rss_kib\": " << peak_rss_kib() << ",\n"
         << "  \"agreement_floor\": " << bench::json_quality(kAgreementFloor)
         << ",\n  \"agreement\": {";
    bool first = true;
    for (const auto& [name, value] : agreement) {
      json << (first ? "\n" : ",\n") << "    \"" << name
           << "\": " << bench::json_quality(value);
      first = false;
    }
    json << "\n  },\n  \"results\": [";
    first = true;
    for (const BackendResult& r : results) {
      json << (first ? "\n" : ",\n") << "    {\"landscape\": \""
           << r.landscape << "\", \"backend\": \"" << r.backend
           << "\", \"items\": " << r.items
           << ", \"clusters\": " << r.clusters.cluster_count()
           << ", \"singletons\": " << r.clusters.singleton_count()
           << ",\n     \"precision\": " << bench::json_quality(
                  r.quality.precision)
           << ", \"recall\": " << bench::json_quality(r.quality.recall)
           << ", \"f_measure\": " << bench::json_quality(r.quality.f_measure)
           << ", \"pairwise_f1\": " << bench::json_quality(
                  r.quality.pairwise_f1)
           << ",\n     \"consistent_clusters\": " << r.consistent
           << ", \"unfragmented_families\": " << r.unfragmented
           << ", \"wall_ms\": " << fixed_ms(r.wall_ns)
           << ",\n     \"counters\": {";
      bool inner_first = true;
      for (const auto& [name, value] : r.counters) {
        json << (inner_first ? "" : ", ") << "\"" << name
             << "\": " << value;
        inner_first = false;
      }
      json << "}}";
      first = false;
    }
    json << "\n  ]\n}\n";

    std::ofstream out{out_path, std::ios::binary};
    if (!out) {
      throw IoError("bench_cluster_backends: cannot open " + out_path +
                    " for writing");
    }
    out << json.str();
    std::cout << "wrote " << out_path << "\n";
    bench::print_degradation(ds);

    if (!check_path.empty()) {
      bool ok = true;
      for (const auto& [name, value] : agreement) {
        if (value < kAgreementFloor) {
          std::cerr << "ABL-12 gate: lsh-vs-exact agreement on landscape '"
                    << name << "' is " << fixed(value, 4)
                    << ", below the floor " << fixed(kAgreementFloor, 4)
                    << "\n";
          ok = false;
        }
      }
      const auto rows = pinned_rows(results);
      if (!bench::rows_match_table(
              "ABL-12", rows,
              bench::read_counter_table(check_path, "ABL-12"))) {
        ok = false;
      }
      if (!ok) {
        std::cerr << "bench_cluster_backends: backend behavior drifted — "
                     "update the ABL-12 table in EXPERIMENTS.md alongside "
                     "the change\n";
        return 1;
      }
      std::cout << "ABL-12 gate: " << rows.size()
                << " rows match EXPERIMENTS.md, agreement above "
                << fixed(kAgreementFloor, 2) << "\n";
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
}
