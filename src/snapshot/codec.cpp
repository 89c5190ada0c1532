#include "snapshot/codec.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace repro::snapshot {

namespace {

// --- Primitive helpers ------------------------------------------------------

void put_string(ByteWriter& writer, std::string_view s) {
  writer.u32(static_cast<std::uint32_t>(s.size()));
  writer.text(s);
}

std::string get_string(ByteReader& reader) {
  const std::uint32_t length = reader.u32();
  return reader.fixed_text(length);
}

void put_i32(ByteWriter& writer, int value) {
  writer.u32(static_cast<std::uint32_t>(value));
}

int get_i32(ByteReader& reader) { return static_cast<int>(reader.u32()); }

void put_i64(ByteWriter& writer, std::int64_t value) {
  writer.u64(static_cast<std::uint64_t>(value));
}

std::int64_t get_i64(ByteReader& reader) {
  return static_cast<std::int64_t>(reader.u64());
}

bool get_flag(ByteReader& reader) {
  const std::uint8_t value = reader.u8();
  if (value > 1) {
    throw ParseError("snapshot codec: boolean flag is " +
                     std::to_string(value));
  }
  return value != 0;
}

/// Reads an element count and sanity-bounds it against the remaining
/// bytes (every element occupies at least `min_element_bytes`), so a
/// corrupt count fails as ParseError instead of a huge allocation.
std::size_t get_count(ByteReader& reader, std::size_t min_element_bytes = 1) {
  const std::uint64_t count = reader.u64();
  const std::size_t bound =
      reader.remaining() / std::max<std::size_t>(1, min_element_bytes);
  if (count > bound) {
    throw ParseError("snapshot codec: element count " + std::to_string(count) +
                     " exceeds remaining data");
  }
  return static_cast<std::size_t>(count);
}

template <typename Enum>
Enum get_enum(ByteReader& reader, std::uint8_t max_value, const char* what) {
  const std::uint8_t value = reader.u8();
  if (value > max_value) {
    throw ParseError(std::string("snapshot codec: out-of-range ") + what +
                     " value " + std::to_string(value));
  }
  return static_cast<Enum>(value);
}

void put_string_vector(ByteWriter& writer,
                       const std::vector<std::string>& values) {
  writer.u64(values.size());
  for (const std::string& value : values) put_string(writer, value);
}

std::vector<std::string> get_string_vector(ByteReader& reader) {
  const std::size_t count = get_count(reader, 4);
  std::vector<std::string> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) values.push_back(get_string(reader));
  return values;
}

// --- Observed dataset -------------------------------------------------------

void put_event(ByteWriter& writer, const honeypot::AttackEvent& event) {
  writer.u64(event.id);
  put_i64(writer, event.time.seconds);
  writer.u32(event.attacker.value());
  writer.u32(event.honeypot.value());
  put_i32(writer, event.location);
  put_string(writer, event.epsilon.fsm_path);
  writer.u16(event.epsilon.dst_port);
  writer.u8(event.gamma.has_value() ? 1 : 0);
  if (event.gamma.has_value()) {
    put_string(writer, event.gamma->technique);
    writer.u32(event.gamma->trampoline);
    writer.u16(event.gamma->pad_length);
  }
  writer.u8(event.pi.has_value() ? 1 : 0);
  if (event.pi.has_value()) {
    put_string(writer, event.pi->protocol);
    put_string(writer, event.pi->filename);
    writer.u16(event.pi->port);
    put_string(writer, event.pi->interaction);
  }
  writer.u8(event.sample.has_value() ? 1 : 0);
  if (event.sample.has_value()) writer.u32(*event.sample);
  writer.u8(event.download_refused ? 1 : 0);
  writer.u8(event.refinement_failed ? 1 : 0);
  writer.u32(event.truth_variant);
}

honeypot::AttackEvent get_event(ByteReader& reader) {
  honeypot::AttackEvent event;
  event.id = reader.u64();
  event.time.seconds = get_i64(reader);
  event.attacker = net::Ipv4{reader.u32()};
  event.honeypot = net::Ipv4{reader.u32()};
  event.location = get_i32(reader);
  event.epsilon.fsm_path = get_string(reader);
  event.epsilon.dst_port = reader.u16();
  if (get_flag(reader)) {
    proto::GammaObservation gamma;
    gamma.technique = get_string(reader);
    gamma.trampoline = reader.u32();
    gamma.pad_length = reader.u16();
    event.gamma = std::move(gamma);
  }
  if (get_flag(reader)) {
    honeypot::PiObservation pi;
    pi.protocol = get_string(reader);
    pi.filename = get_string(reader);
    pi.port = reader.u16();
    pi.interaction = get_string(reader);
    event.pi = std::move(pi);
  }
  if (get_flag(reader)) event.sample = reader.u32();
  event.download_refused = get_flag(reader);
  event.refinement_failed = get_flag(reader);
  event.truth_variant = reader.u32();
  return event;
}

void put_profile(ByteWriter& writer,
                 const std::optional<sandbox::BehavioralProfile>& profile) {
  writer.u8(profile.has_value() ? 1 : 0);
  if (!profile.has_value()) return;
  // std::set iterates in sorted order, so the serialization is
  // deterministic.
  const std::set<std::string>& features = profile->features();
  writer.u64(features.size());
  for (const std::string& feature : features) put_string(writer, feature);
}

std::optional<sandbox::BehavioralProfile> get_profile(ByteReader& reader) {
  if (!get_flag(reader)) return std::nullopt;
  const std::vector<std::string> features = get_string_vector(reader);
  return sandbox::BehavioralProfile{
      std::set<std::string>(features.begin(), features.end())};
}

void put_pattern(ByteWriter& writer, const cluster::Pattern& pattern) {
  writer.u64(pattern.fields().size());
  for (const std::optional<std::string>& field : pattern.fields()) {
    writer.u8(field.has_value() ? 1 : 0);
    if (field.has_value()) put_string(writer, *field);
  }
}

cluster::Pattern get_pattern(ByteReader& reader) {
  const std::size_t count = get_count(reader);
  std::vector<std::optional<std::string>> fields;
  fields.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (get_flag(reader)) {
      fields.emplace_back(get_string(reader));
    } else {
      fields.emplace_back(std::nullopt);
    }
  }
  return cluster::Pattern{std::move(fields)};
}

}  // namespace

// --- Private-state access shims ---------------------------------------------

struct EpmResultAccess {
  static cluster::EpmResult restore(
      cluster::FeatureSchema schema, cluster::InvariantTable invariants,
      std::vector<cluster::Pattern> patterns, std::vector<int> assignment,
      std::vector<honeypot::EventId> event_ids) {
    if (assignment.size() != event_ids.size()) {
      throw ParseError("snapshot codec: EPM assignment/event id mismatch");
    }
    cluster::EpmResult result;
    result.schema = std::move(schema);
    result.invariants = std::move(invariants);
    result.patterns = std::move(patterns);
    result.assignment = std::move(assignment);
    result.event_ids = std::move(event_ids);
    result.members.assign(result.patterns.size(), {});
    for (std::size_t row = 0; row < result.assignment.size(); ++row) {
      const int cluster = result.assignment[row];
      if (cluster < 0 ||
          static_cast<std::size_t>(cluster) >= result.patterns.size()) {
        throw ParseError("snapshot codec: EPM row assigned to cluster " +
                         std::to_string(cluster) + " of " +
                         std::to_string(result.patterns.size()));
      }
      result.members[static_cast<std::size_t>(cluster)].push_back(row);
      result.event_index_.emplace(result.event_ids[row], cluster);
    }
    return result;
  }
};

struct BehavioralViewAccess {
  static analysis::BehavioralView restore(
      std::vector<honeypot::SampleId> rows, std::vector<int> assignment,
      std::vector<int> sample_to_cluster) {
    if (rows.size() != assignment.size()) {
      throw ParseError("snapshot codec: behavioral rows/assignment mismatch");
    }
    analysis::BehavioralView view;
    view.rows_ = std::move(rows);
    view.clusters_.assignment = std::move(assignment);
    // Cross-check the stored sample map against what rows+assignment
    // imply; any disagreement means the snapshot is corrupt.
    std::vector<int> expected(sample_to_cluster.size(), -1);
    for (std::size_t row = 0; row < view.rows_.size(); ++row) {
      const int cluster = view.clusters_.assignment[row];
      // Every backend emits dense cluster ids ordered by first member,
      // so a valid id is either an already-seen cluster or exactly the
      // next fresh one. Enforcing that here — instead of sizing the
      // member table from max(assignment) — also keeps a corrupt but
      // CRC-valid snapshot carrying one huge id from demanding an
      // unbounded member-table allocation before the check could fire.
      if (cluster < 0 ||
          static_cast<std::size_t>(cluster) > view.clusters_.members.size()) {
        throw ParseError(
            "snapshot codec: behavioral cluster ids not dense "
            "first-member-ordered at row " +
            std::to_string(row));
      }
      if (static_cast<std::size_t>(cluster) == view.clusters_.members.size()) {
        view.clusters_.members.emplace_back();
      }
      if (view.rows_[row] >= sample_to_cluster.size()) {
        throw ParseError("snapshot codec: behavioral row references sample " +
                         std::to_string(view.rows_[row]) + " of " +
                         std::to_string(sample_to_cluster.size()));
      }
      view.clusters_.members[static_cast<std::size_t>(cluster)].push_back(row);
      expected[view.rows_[row]] = cluster;
    }
    if (expected != sample_to_cluster) {
      throw ParseError(
          "snapshot codec: behavioral sample map disagrees with assignment");
    }
    view.sample_to_cluster_ = std::move(sample_to_cluster);
    return view;
  }
  static const std::vector<int>& sample_map(
      const analysis::BehavioralView& view) {
    return view.sample_to_cluster_;
  }
};

// --- Public entry points ----------------------------------------------------

void write_enrichment_stats(ByteWriter& writer,
                            const honeypot::EnrichmentStats& stats) {
  writer.u64(stats.submitted);
  writer.u64(stats.executed);
  writer.u64(stats.failed);
  writer.u64(stats.parse_failures);
  writer.u64(stats.sandbox_faults);
  writer.u64(stats.label_gaps);
}

honeypot::EnrichmentStats read_enrichment_stats(ByteReader& reader) {
  honeypot::EnrichmentStats stats;
  stats.submitted = reader.u64();
  stats.executed = reader.u64();
  stats.failed = reader.u64();
  stats.parse_failures = reader.u64();
  stats.sandbox_faults = reader.u64();
  stats.label_gaps = reader.u64();
  return stats;
}

void write_fault_report(ByteWriter& writer, const fault::FaultReport& report) {
  writer.u64(report.attacks_lost_to_outage);
  writer.u64(report.proxy_attempts);
  writer.u64(report.proxy_failures);
  writer.u64(report.proxy_retries);
  writer.u64(report.refinements_abandoned);
  put_i64(writer, report.proxy_backoff_seconds);
  writer.u64(report.downloads_refused);
  writer.u64(report.downloads_corrupted);
  writer.u64(report.sandbox_failures);
  writer.u64(report.av_label_gaps);
  // Checked-decision counters (format version 2): on resume the
  // injector is never re-exercised, so fault.<site>.checked metrics
  // are only uniform across fresh and resumed runs if the snapshot
  // carries them.
  writer.u64(report.sensor_checks);
  writer.u64(report.download_checks);
  writer.u64(report.sandbox_checks);
  writer.u64(report.av_label_checks);
  // Ingest delivery counters (format version 3): the epoch loop's
  // kill-resume guarantee extends to fault.delivery.* metrics, so the
  // delivery bookkeeping must survive in the snapshot too.
  writer.u64(report.delivery_checks);
  writer.u64(report.delivery_failures);
  writer.u64(report.delivery_retries);
  writer.u64(report.delivery_retry_exhausted);
  put_i64(writer, report.delivery_backoff_seconds);
}

fault::FaultReport read_fault_report(ByteReader& reader) {
  fault::FaultReport report;
  report.attacks_lost_to_outage = reader.u64();
  report.proxy_attempts = reader.u64();
  report.proxy_failures = reader.u64();
  report.proxy_retries = reader.u64();
  report.refinements_abandoned = reader.u64();
  report.proxy_backoff_seconds = get_i64(reader);
  report.downloads_refused = reader.u64();
  report.downloads_corrupted = reader.u64();
  report.sandbox_failures = reader.u64();
  report.av_label_gaps = reader.u64();
  report.sensor_checks = reader.u64();
  report.download_checks = reader.u64();
  report.sandbox_checks = reader.u64();
  report.av_label_checks = reader.u64();
  report.delivery_checks = reader.u64();
  report.delivery_failures = reader.u64();
  report.delivery_retries = reader.u64();
  report.delivery_retry_exhausted = reader.u64();
  report.delivery_backoff_seconds = get_i64(reader);
  return report;
}

void write_enrichment_column(
    ByteWriter& writer, std::span<const honeypot::MalwareSample> samples) {
  writer.u64(samples.size());
  for (const honeypot::MalwareSample& sample : samples) {
    put_string(writer, sample.md5);
    put_profile(writer, sample.profile);
    put_string(writer, sample.av_label);
    writer.u8(sample.label_missing ? 1 : 0);
  }
}

std::vector<SampleEnrichment> read_enrichment_column(ByteReader& reader) {
  // Smallest entry: two empty strings (u32 lengths) and two flags.
  const std::size_t count = get_count(reader, 10);
  std::vector<SampleEnrichment> column;
  column.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SampleEnrichment entry;
    entry.md5 = get_string(reader);
    entry.profile = get_profile(reader);
    entry.av_label = get_string(reader);
    entry.label_missing = get_flag(reader);
    if (entry.label_missing && !entry.av_label.empty()) {
      throw ParseError("snapshot codec: sample " + std::to_string(i) +
                       " has a label but is marked label-missing");
    }
    column.push_back(std::move(entry));
  }
  return column;
}

void write_attack_event(ByteWriter& writer,
                        const honeypot::AttackEvent& event) {
  put_event(writer, event);
}

honeypot::AttackEvent read_attack_event(ByteReader& reader) {
  return get_event(reader);
}

void write_epm_result(ByteWriter& writer, const cluster::EpmResult& result) {
  writer.u8(static_cast<std::uint8_t>(result.schema.dimension));
  put_string_vector(writer, result.schema.names);
  writer.u64(result.invariants.feature_count());
  for (std::size_t feature = 0; feature < result.invariants.feature_count();
       ++feature) {
    put_string_vector(writer, result.invariants.sorted_values(feature));
  }
  writer.u64(result.patterns.size());
  for (const cluster::Pattern& pattern : result.patterns) {
    put_pattern(writer, pattern);
  }
  writer.u64(result.assignment.size());
  for (const int cluster : result.assignment) put_i32(writer, cluster);
  writer.u64(result.event_ids.size());
  for (const honeypot::EventId id : result.event_ids) writer.u64(id);
}

cluster::EpmResult read_epm_result(ByteReader& reader) {
  cluster::FeatureSchema schema;
  schema.dimension = get_enum<cluster::Dimension>(
      reader, static_cast<std::uint8_t>(cluster::Dimension::kMu), "Dimension");
  schema.names = get_string_vector(reader);
  const std::size_t features = get_count(reader, 8);
  cluster::InvariantTable invariants{features};
  for (std::size_t feature = 0; feature < features; ++feature) {
    for (std::string& value : get_string_vector(reader)) {
      invariants.add(feature, std::move(value));
    }
  }
  const std::size_t pattern_count = get_count(reader, 8);
  std::vector<cluster::Pattern> patterns;
  patterns.reserve(pattern_count);
  for (std::size_t i = 0; i < pattern_count; ++i) {
    patterns.push_back(get_pattern(reader));
  }
  const std::size_t rows = get_count(reader, 4);
  std::vector<int> assignment;
  assignment.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) assignment.push_back(get_i32(reader));
  const std::size_t ids = get_count(reader, 8);
  std::vector<honeypot::EventId> event_ids;
  event_ids.reserve(ids);
  for (std::size_t i = 0; i < ids; ++i) event_ids.push_back(reader.u64());
  return EpmResultAccess::restore(std::move(schema), std::move(invariants),
                                  std::move(patterns), std::move(assignment),
                                  std::move(event_ids));
}

void write_behavioral_view(ByteWriter& writer,
                           const analysis::BehavioralView& view) {
  writer.u64(view.row_count());
  for (std::size_t row = 0; row < view.row_count(); ++row) {
    writer.u32(view.sample_of_row(row));
  }
  writer.u64(view.clusters().assignment.size());
  for (const int cluster : view.clusters().assignment) {
    put_i32(writer, cluster);
  }
  const std::vector<int>& sample_map = BehavioralViewAccess::sample_map(view);
  writer.u64(sample_map.size());
  for (const int cluster : sample_map) put_i32(writer, cluster);
}

analysis::BehavioralView read_behavioral_view(ByteReader& reader) {
  const std::size_t row_count = get_count(reader, 4);
  std::vector<honeypot::SampleId> rows;
  rows.reserve(row_count);
  for (std::size_t i = 0; i < row_count; ++i) rows.push_back(reader.u32());
  const std::size_t assignment_count = get_count(reader, 4);
  std::vector<int> assignment;
  assignment.reserve(assignment_count);
  for (std::size_t i = 0; i < assignment_count; ++i) {
    assignment.push_back(get_i32(reader));
  }
  const std::size_t map_count = get_count(reader, 4);
  std::vector<int> sample_to_cluster;
  sample_to_cluster.reserve(map_count);
  for (std::size_t i = 0; i < map_count; ++i) {
    sample_to_cluster.push_back(get_i32(reader));
  }
  return BehavioralViewAccess::restore(std::move(rows), std::move(assignment),
                                       std::move(sample_to_cluster));
}

}  // namespace repro::snapshot
