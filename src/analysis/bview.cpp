#include "analysis/bview.hpp"

namespace repro::analysis {

BehavioralView BehavioralView::build(const honeypot::EventDatabase& db,
                                     const cluster::BehavioralOptions& options,
                                     cluster::LshLinkage* linkage) {
  BehavioralView view;
  std::vector<const sandbox::BehavioralProfile*> profiles;
  for (const honeypot::MalwareSample& sample : db.samples()) {
    if (!sample.profile.has_value()) continue;
    view.rows_.push_back(sample.id);
    profiles.push_back(&*sample.profile);
  }
  if (linkage != nullptr) {
    linkage->extend(profiles);
    view.clusters_ = linkage->clusters();
  } else {
    view.clusters_ = cluster::cluster_profiles(profiles, options);
  }
  view.sample_to_cluster_.assign(db.samples().size(), -1);
  for (std::size_t row = 0; row < view.rows_.size(); ++row) {
    view.sample_to_cluster_[view.rows_[row]] =
        view.clusters_.assignment[row];
  }
  return view;
}

int BehavioralView::cluster_of_sample(honeypot::SampleId sample) const {
  if (sample >= sample_to_cluster_.size()) return -1;
  return sample_to_cluster_[sample];
}

std::vector<honeypot::SampleId> BehavioralView::samples_of_cluster(
    int cluster) const {
  std::vector<honeypot::SampleId> out;
  if (cluster < 0 ||
      static_cast<std::size_t>(cluster) >= clusters_.members.size()) {
    return out;
  }
  for (const std::size_t row :
       clusters_.members[static_cast<std::size_t>(cluster)]) {
    out.push_back(rows_[row]);
  }
  return out;
}

}  // namespace repro::analysis
