#include "cluster/incremental.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/sorted.hpp"

namespace repro::cluster {

namespace {

FeatureSchema schema_of(Dimension dimension) {
  switch (dimension) {
    case Dimension::kEpsilon: return epsilon_schema();
    case Dimension::kGamma: return gamma_schema();
    case Dimension::kPi: return pi_schema();
    case Dimension::kMu: return mu_schema();
  }
  throw ConfigError("IncrementalEpm: unknown dimension");
}

}  // namespace

IncrementalEpm::IncrementalEpm(Dimension dimension)
    : schema_(schema_of(dimension)),
      stats_(schema_.size()),
      invariants_(schema_.size()) {}

void IncrementalEpm::reset() {
  events_seen_ = 0;
  rows_.clear();
  event_ids_.clear();
  stats_.assign(schema_.size(), {});
  invariants_ = InvariantTable{schema_.size()};
  pool_.clear();
  pool_index_.clear();
  handles_.clear();
  reclassified_ = 0;
  mu_cache_.clear();
}

IncrementalEpm::RowRef IncrementalEpm::extract_row(
    const honeypot::AttackEvent& event, const honeypot::EventDatabase& db) {
  switch (schema_.dimension) {
    case Dimension::kEpsilon:
      return {std::make_shared<const FeatureVector>(extract_epsilon(event))};
    case Dimension::kGamma:
      if (!event.gamma.has_value()) return {};
      return {std::make_shared<const FeatureVector>(extract_gamma(event))};
    case Dimension::kPi:
      if (!event.pi.has_value()) return {};
      return {std::make_shared<const FeatureVector>(extract_pi(event))};
    case Dimension::kMu: {
      if (!event.sample.has_value()) return {};
      auto it = mu_cache_.find(*event.sample);
      if (it == mu_cache_.end()) {
        it = mu_cache_
                 .emplace(*event.sample,
                          MuEntry{std::make_shared<const FeatureVector>(
                                      extract_mu(db.sample(*event.sample))),
                                  {}})
                 .first;
      }
      return {it->second.row, &it->second.slots};
    }
  }
  throw ConfigError("IncrementalEpm: unknown dimension");
}

void IncrementalEpm::add_row(RowRef ref, const honeypot::AttackEvent& event) {
  const FeatureVector& row = *ref.row;
  if (row.values.size() != schema_.size()) {
    throw ConfigError("IncrementalEpm: instance arity mismatch with schema");
  }
  const std::size_t index = rows_.size();
  std::vector<ValueStats*>* slots = ref.slots;
  const auto count = [&](ValueStats& stats) {
    ++stats.instances;
    stats.sources.insert(event.attacker.value());
    stats.destinations.insert(event.honeypot.value());
    stats.rows.push_back(index);
  };
  if (slots != nullptr && !slots->empty()) {
    // This sample's counting slots were resolved by an earlier event —
    // update them directly, no value re-hashing.
    for (ValueStats* stats : *slots) count(*stats);
  } else {
    for (std::size_t f = 0; f < schema_.size(); ++f) {
      ValueStats& stats = stats_[f][row.values[f]];
      count(stats);
      if (slots != nullptr) slots->push_back(&stats);
    }
  }
  event_ids_.push_back(event.id);
  rows_.push_back(std::move(ref.row));
}

bool IncrementalEpm::meets(const ValueStats& stats,
                           const InvariantThresholds& thresholds) const {
  return stats.instances >= thresholds.min_instances &&
         stats.sources.size() >= thresholds.min_sources &&
         stats.destinations.size() >= thresholds.min_destinations;
}

int IncrementalEpm::intern(Pattern pattern) {
  std::string key = pattern.key();
  const auto it = pool_index_.find(key);
  if (it != pool_index_.end()) return it->second;
  const int handle = static_cast<int>(pool_.size());
  pool_.push_back(std::move(pattern));
  pool_index_.emplace(std::move(key), handle);
  return handle;
}

EpmResult IncrementalEpm::materialize() const {
  EpmResult result;
  result.schema = schema_;
  result.invariants = invariants_;
  result.event_ids = event_ids_;
  result.assignment.reserve(rows_.size());
  // Densify pool handles into cluster ids in first-seen row order —
  // exactly the dedup-by-key walk epm_cluster() performs, so ids (and
  // therefore every serialized byte) coincide with the full recompute.
  std::vector<int> dense(pool_.size(), -1);
  for (std::size_t row = 0; row < rows_.size(); ++row) {
    const int handle = handles_[row];
    if (dense[static_cast<std::size_t>(handle)] < 0) {
      dense[static_cast<std::size_t>(handle)] =
          static_cast<int>(result.patterns.size());
      result.patterns.push_back(pool_[static_cast<std::size_t>(handle)]);
      result.members.emplace_back();
    }
    const int cluster = dense[static_cast<std::size_t>(handle)];
    result.assignment.push_back(cluster);
    result.members[static_cast<std::size_t>(cluster)].push_back(row);
    result.event_index_.emplace(event_ids_[row], cluster);
  }
  return result;
}

EpmResult IncrementalEpm::update(const honeypot::EventDatabase& db,
                                 const InvariantThresholds& thresholds) {
  const std::vector<honeypot::AttackEvent>& events = db.events();
  if (events.size() < events_seen_) {
    throw ConfigError(
        "IncrementalEpm::update: database shrank below the absorbed prefix");
  }
  const std::size_t old_rows = rows_.size();
  for (std::size_t i = events_seen_; i < events.size(); ++i) {
    RowRef ref = extract_row(events[i], db);
    if (ref.row == nullptr) continue;
    add_row(std::move(ref), events[i]);
  }
  events_seen_ = events.size();

  // Advance the invariant table. Counts only grow and the relevance
  // constraints are lower bounds, so a status flip is always
  // non-invariant -> invariant and can only happen to a value the delta
  // touched — checking each new row's values covers every candidate.
  // Rows holding a flipped value are the reclassification trigger set.
  std::vector<std::size_t> affected;
  for (std::size_t row = old_rows; row < rows_.size(); ++row) {
    for (std::size_t f = 0; f < schema_.size(); ++f) {
      const std::string& value = rows_[row]->values[f];
      // A missing observation is not a value: it must never become an
      // invariant (mirrors discover_invariants).
      if (value == kNotAvailable) continue;
      if (invariants_.is_invariant(f, value)) continue;
      const ValueStats& stats = stats_[f].at(value);
      if (!meets(stats, thresholds)) continue;
      invariants_.add(f, value);
      for (const std::size_t holder : stats.rows) {
        if (holder < old_rows) affected.push_back(holder);
      }
    }
  }
  sorted_unique(affected);
  reclassified_ += affected.size();

  // Re-generalize exactly the affected prefix rows, then every new row,
  // against the advanced table.
  for (const std::size_t row : affected) {
    handles_[row] = intern(Pattern::generalize(*rows_[row], invariants_));
  }
  handles_.reserve(rows_.size());
  for (std::size_t row = old_rows; row < rows_.size(); ++row) {
    handles_.push_back(intern(Pattern::generalize(*rows_[row], invariants_)));
  }
  return materialize();
}

void IncrementalEpm::restore(const honeypot::EventDatabase& db,
                             const EpmResult& result,
                             std::uint64_t reclassified,
                             const InvariantThresholds& thresholds) {
  reset();
  if (result.schema.dimension != schema_.dimension) {
    throw ConfigError("IncrementalEpm::restore: dimension mismatch");
  }
  if (result.invariants.feature_count() != schema_.size()) {
    throw ConfigError(
        "IncrementalEpm::restore: invariant table arity mismatch");
  }
  // Recount the replayed prefix through the path update() takes.
  events_seen_ = db.events().size();
  for (const honeypot::AttackEvent& event : db.events()) {
    RowRef ref = extract_row(event, db);
    if (ref.row == nullptr) continue;
    add_row(std::move(ref), event);
  }
  if (rows_.size() != result.assignment.size()) {
    throw ConfigError(
        "IncrementalEpm::restore: row count disagrees with the restored "
        "clustering");
  }
  if (event_ids_ != result.event_ids) {
    throw ConfigError(
        "IncrementalEpm::restore: event ids disagree with the restored "
        "clustering");
  }
  // Counts only grow, so the table update() advanced to is exactly the
  // set of values meeting the thresholds now. A cut whose table differs
  // does not describe this prefix.
  for (std::size_t f = 0; f < schema_.size(); ++f) {
    for (const std::string& value : sorted_keys(stats_[f])) {
      if (value != kNotAvailable && meets(stats_[f].at(value), thresholds)) {
        invariants_.add(f, value);
      }
    }
    if (invariants_.sorted_values(f) != result.invariants.sorted_values(f)) {
      throw ConfigError(
          "IncrementalEpm::restore: invariant table disagrees with the "
          "recounted statistics");
    }
  }
  reclassified_ = reclassified;

  // The restored pattern list is dense in first-seen order, i.e. it is
  // exactly the intern pool in creation order (stale pool entries of
  // the pre-kill process are gone, which is harmless: handles are
  // internal and densification re-derives the same ids either way).
  pool_ = result.patterns;
  for (std::size_t handle = 0; handle < pool_.size(); ++handle) {
    if (!pool_index_.emplace(pool_[handle].key(), static_cast<int>(handle))
             .second) {
      throw ConfigError(
          "IncrementalEpm::restore: duplicate pattern key in the restored "
          "clustering");
    }
  }
  handles_.reserve(result.assignment.size());
  for (const int cluster : result.assignment) {
    if (cluster < 0 || static_cast<std::size_t>(cluster) >= pool_.size()) {
      throw ConfigError(
          "IncrementalEpm::restore: assignment references a missing "
          "pattern");
    }
    handles_.push_back(cluster);
  }
}

}  // namespace repro::cluster
