// ABL-3 — static clustering baselines on the mu dimension: the paper's
// EPM pattern clustering versus peHash (Wicherski, LEET'09) versus
// naive MD5-equality clustering, all scored against ground-truth
// variants. The paper's thesis — simple static techniques work against
// current polymorphism — is quantified here.
#include <iostream>
#include <unordered_map>

#include "bench_common.hpp"
#include "cluster/metrics.hpp"
#include "cluster/pehash.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace repro;
  const scenario::Dataset ds =
      bench::build_dataset("ABL-3: EPM vs peHash vs MD5-only baselines");
  // peHash reads the bytes, which the dataset does not keep: run the
  // same deployment again and take them from what it collected (the
  // sequence is deterministic, so sample ids line up with ds.db).
  const scenario::ScenarioOptions options = bench::options_from_env();
  fault::FaultInjector injector{options.faults};
  std::vector<std::vector<std::uint8_t>> contents;
  {
    honeypot::EventDatabase collected;
    honeypot::Deployment{
        ds.landscape,
        scenario::make_paper_deployment_config(
            options, options.faults.pipeline_empty() ? nullptr : &injector)}
        .drain_into(collected, &contents);
  }

  // Work per event (as EPM does), with ground truth labels.
  const auto mu_data = cluster::build_mu_data(ds.db);
  std::vector<int> truth;
  std::vector<honeypot::SampleId> row_sample;
  for (const auto event_id : mu_data.event_ids) {
    const auto& event = ds.db.events()[event_id];
    truth.push_back(static_cast<int>(event.truth_variant));
    row_sample.push_back(*event.sample);
  }

  TextTable table{{"method", "clusters", "precision", "recall", "F-measure",
                   "pairwise F1"}};
  const auto add_row = [&](const std::string& name,
                           const std::vector<int>& assignment) {
    const auto metrics = cluster::evaluate_clustering(assignment, truth);
    table.add_row({name, std::to_string(metrics.cluster_count),
                   fixed(metrics.precision, 3), fixed(metrics.recall, 3),
                   fixed(metrics.f_measure, 3),
                   fixed(metrics.pairwise_f1, 3)});
  };

  // 1. EPM mu clustering (the paper's technique).
  add_row("EPM (paper)", ds.m.assignment);

  // 2. peHash-style structural hashing, computed per sample and
  // propagated to events.
  {
    std::unordered_map<honeypot::SampleId, int> sample_cluster;
    std::unordered_map<std::string, int> hash_cluster;
    int next = 0;
    for (const auto& sample : ds.db.samples()) {
      const auto hash = cluster::pehash(contents.at(sample.id));
      if (hash.has_value()) {
        const auto [it, inserted] = hash_cluster.emplace(*hash, next);
        if (inserted) ++next;
        sample_cluster[sample.id] = it->second;
      } else {
        sample_cluster[sample.id] = next++;  // unparsable: singleton
      }
    }
    std::vector<int> assignment;
    assignment.reserve(row_sample.size());
    for (const auto sample : row_sample) {
      assignment.push_back(sample_cluster.at(sample));
    }
    add_row("peHash (Wicherski)", assignment);
  }

  // 3. MD5 equality — defeated by polymorphism.
  {
    std::unordered_map<honeypot::SampleId, int> sample_cluster;
    for (const auto& sample : ds.db.samples()) {
      sample_cluster[sample.id] = static_cast<int>(sample.id);
    }
    std::vector<int> assignment;
    for (const auto sample : row_sample) {
      assignment.push_back(sample_cluster.at(sample));
    }
    add_row("MD5 equality", assignment);
  }

  std::cout << table.render()
            << "\n(expected shape: MD5 recall collapses under per-instance "
               "polymorphism; EPM and\npeHash both restore it from "
               "packer-stable structure, EPM slightly ahead because\nthe "
               "exact file size separates same-structure Allaple builds)\n";
  bench::print_degradation(ds);
  return 0;
}
