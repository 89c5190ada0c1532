// Behavioral clustering of a dataset — the B-cluster view.
//
// Binds the generic profile clustering to the event database: rows are
// the analyzable samples (those with a behavioral profile), and the
// view resolves sample ids and event ids to B-cluster ids.
#pragma once

#include <vector>

#include "cluster/behavioral.hpp"
#include "honeypot/database.hpp"

namespace repro::snapshot {
struct BehavioralViewAccess;
}  // namespace repro::snapshot

namespace repro::analysis {

class BehavioralView {
 public:
  /// Clusters every analyzable sample's profile in the database. With
  /// `linkage`, the rows are appended to it (the rows of its earlier
  /// builds must be a prefix of this database's, which holds when the
  /// database only grows) and it produces the partition under its own
  /// options; without it, `options` selects the backend and everything
  /// is computed afresh.
  static BehavioralView build(const honeypot::EventDatabase& db,
                              const cluster::BehavioralOptions& options = {},
                              cluster::LshLinkage* linkage = nullptr);

  [[nodiscard]] const cluster::BehavioralClusters& clusters() const noexcept {
    return clusters_;
  }
  /// Sample behind row `index`.
  [[nodiscard]] honeypot::SampleId sample_of_row(std::size_t index) const {
    return rows_[index];
  }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// B-cluster of a sample; -1 when the sample was not analyzable.
  [[nodiscard]] int cluster_of_sample(honeypot::SampleId sample) const;

  /// Member sample ids of one B-cluster.
  [[nodiscard]] std::vector<honeypot::SampleId> samples_of_cluster(
      int cluster) const;

  [[nodiscard]] std::size_t cluster_count() const noexcept {
    return clusters_.cluster_count();
  }
  [[nodiscard]] std::size_t singleton_count() const noexcept {
    return clusters_.singleton_count();
  }

 private:
  /// Snapshot codec: restores the row and assignment state directly.
  friend struct repro::snapshot::BehavioralViewAccess;

  std::vector<honeypot::SampleId> rows_;
  std::vector<int> sample_to_cluster_;  // indexed by SampleId, -1 = none
  cluster::BehavioralClusters clusters_;
};

}  // namespace repro::analysis
