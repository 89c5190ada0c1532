// The SGNET dataset: events plus the deduplicated sample store.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "honeypot/event.hpp"

namespace repro::honeypot {

class EventDatabase {
 public:
  /// Stores one event, assigning its id. Returns the id.
  EventId add_event(AttackEvent event);

  /// Stores a collected binary, deduplicating by MD5. Returns the
  /// sample id and bumps its event count; first_seen keeps the earliest
  /// time.
  SampleId add_sample(std::vector<std::uint8_t> content, SimTime seen,
                      bool truncated, malware::VariantId truth_variant);

  /// add_sample for a binary whose MD5 (32 lowercase hex characters) is
  /// already known, e.g. carried in a WAL record: the digest is trusted,
  /// not re-derived. On a duplicate digest `content` is ignored.
  SampleId add_sample(std::string md5, std::vector<std::uint8_t> content,
                      SimTime seen, bool truncated,
                      malware::VariantId truth_variant);

  [[nodiscard]] const std::vector<AttackEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] const std::vector<MalwareSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] const MalwareSample& sample(SampleId id) const;
  [[nodiscard]] MalwareSample& sample_mutable(SampleId id);
  /// Mutable view for the enrichment pipeline.
  [[nodiscard]] std::vector<MalwareSample>& samples_mutable() noexcept {
    return samples_;
  }

  [[nodiscard]] std::optional<SampleId> find_by_md5(
      const std::string& md5) const;

  /// Events referencing the given sample.
  [[nodiscard]] std::vector<EventId> events_of_sample(SampleId id) const;

  /// Samples with a behavioral profile (executed successfully).
  [[nodiscard]] std::size_t analyzable_sample_count() const noexcept;

  /// How partial the dataset is, per dimension — the degradation view
  /// consumers use to skip-and-count instead of assuming completeness.
  struct PresenceSummary {
    std::size_t events = 0;
    std::size_t with_gamma = 0;
    std::size_t with_pi = 0;
    std::size_t with_sample = 0;
    std::size_t unknown_paths = 0;       // epsilon left unrefined/proxied
    std::size_t refused_downloads = 0;   // pi present, transfer refused
    std::size_t refinement_failures = 0; // proxy channel gave up
    std::size_t truncated_samples = 0;
    std::size_t corrupted_samples = 0;
    std::size_t unlabeled_samples = 0;
  };
  [[nodiscard]] PresenceSummary presence_summary() const noexcept;

  /// Cross-reference integrity: every event's sample id resolves, every
  /// sample's event_count matches the events referencing it, and the
  /// MD5 index is a bijection onto the sample store. Throws ConfigError
  /// with a description of the first violation.
  void check_consistency() const;

 private:
  std::vector<AttackEvent> events_;
  std::vector<MalwareSample> samples_;
  std::unordered_map<std::string, SampleId> md5_index_;
};

}  // namespace repro::honeypot
