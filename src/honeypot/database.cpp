#include "honeypot/database.hpp"

#include "util/error.hpp"
#include "util/md5.hpp"

namespace repro::honeypot {

EventId EventDatabase::add_event(AttackEvent event) {
  event.id = static_cast<EventId>(events_.size());
  const EventId id = event.id;
  events_.push_back(std::move(event));
  return id;
}

SampleId EventDatabase::add_sample(std::vector<std::uint8_t> content,
                                   SimTime seen, bool truncated,
                                   malware::VariantId truth_variant) {
  std::string md5 = Md5::hex_digest(content);
  return add_sample(std::move(md5), std::move(content), seen, truncated,
                    truth_variant);
}

SampleId EventDatabase::add_sample(std::string md5,
                                   std::vector<std::uint8_t> content,
                                   SimTime seen, bool truncated,
                                   malware::VariantId truth_variant) {
  const auto it = md5_index_.find(md5);
  if (it != md5_index_.end()) {
    MalwareSample& existing = samples_[it->second];
    ++existing.event_count;
    if (seen < existing.first_seen) existing.first_seen = seen;
    return it->second;
  }
  MalwareSample sample;
  sample.id = static_cast<SampleId>(samples_.size());
  sample.md5 = md5;
  sample.content = std::move(content);
  sample.first_seen = seen;
  sample.truncated = truncated;
  sample.event_count = 1;
  sample.truth_variant = truth_variant;
  md5_index_.emplace(std::move(md5), sample.id);
  samples_.push_back(std::move(sample));
  return samples_.back().id;
}

const MalwareSample& EventDatabase::sample(SampleId id) const {
  if (id >= samples_.size()) {
    throw ConfigError("EventDatabase::sample: unknown id " +
                      std::to_string(id));
  }
  return samples_[id];
}

MalwareSample& EventDatabase::sample_mutable(SampleId id) {
  if (id >= samples_.size()) {
    throw ConfigError("EventDatabase::sample_mutable: unknown id " +
                      std::to_string(id));
  }
  return samples_[id];
}

std::optional<SampleId> EventDatabase::find_by_md5(
    const std::string& md5) const {
  const auto it = md5_index_.find(md5);
  if (it == md5_index_.end()) return std::nullopt;
  return it->second;
}

std::vector<EventId> EventDatabase::events_of_sample(SampleId id) const {
  std::vector<EventId> out;
  for (const AttackEvent& event : events_) {
    if (event.sample.has_value() && *event.sample == id) {
      out.push_back(event.id);
    }
  }
  return out;
}

EventDatabase::PresenceSummary EventDatabase::presence_summary()
    const noexcept {
  PresenceSummary summary;
  summary.events = events_.size();
  for (const AttackEvent& event : events_) {
    const DimensionPresence presence = event.presence();
    summary.with_gamma += presence.gamma ? 1 : 0;
    summary.with_pi += presence.pi ? 1 : 0;
    summary.with_sample += presence.mu ? 1 : 0;
    summary.unknown_paths +=
        event.epsilon.fsm_path.rfind("unknown/", 0) == 0 ? 1 : 0;
    summary.refused_downloads += event.download_refused ? 1 : 0;
    summary.refinement_failures += event.refinement_failed ? 1 : 0;
  }
  for (const MalwareSample& sample : samples_) {
    summary.truncated_samples += sample.truncated ? 1 : 0;
    summary.corrupted_samples += sample.corrupted ? 1 : 0;
    summary.unlabeled_samples += sample.label_missing ? 1 : 0;
  }
  return summary;
}

void EventDatabase::check_consistency() const {
  std::vector<std::size_t> referenced(samples_.size(), 0);
  for (const AttackEvent& event : events_) {
    if (!event.sample.has_value()) continue;
    if (*event.sample >= samples_.size()) {
      throw ConfigError("EventDatabase: event " + std::to_string(event.id) +
                        " references unknown sample " +
                        std::to_string(*event.sample));
    }
    ++referenced[*event.sample];
  }
  for (const MalwareSample& sample : samples_) {
    if (sample.event_count != referenced[sample.id]) {
      throw ConfigError(
          "EventDatabase: sample " + std::to_string(sample.id) +
          " event_count " + std::to_string(sample.event_count) +
          " != referencing events " + std::to_string(referenced[sample.id]));
    }
    const auto it = md5_index_.find(sample.md5);
    if (it == md5_index_.end() || it->second != sample.id) {
      throw ConfigError("EventDatabase: sample " + std::to_string(sample.id) +
                        " missing from the MD5 index");
    }
  }
  if (md5_index_.size() != samples_.size()) {
    throw ConfigError("EventDatabase: MD5 index size " +
                      std::to_string(md5_index_.size()) + " != sample count " +
                      std::to_string(samples_.size()));
  }
}

std::size_t EventDatabase::analyzable_sample_count() const noexcept {
  std::size_t count = 0;
  for (const MalwareSample& sample : samples_) {
    count += sample.profile.has_value() ? 1 : 0;
  }
  return count;
}

}  // namespace repro::honeypot
