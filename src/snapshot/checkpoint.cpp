#include "snapshot/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <utility>

#include "snapshot/codec.hpp"
#include "snapshot/crc32.hpp"
#include "snapshot/durable_file.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"

namespace repro::snapshot {

namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::optional<std::vector<std::uint8_t>> bytes = read_whole_file(path);
  if (!bytes.has_value()) throw ParseError("checkpoint: cannot read " + path);
  return std::move(*bytes);
}

const Section& find_section(const std::vector<Section>& sections,
                            std::string_view name) {
  for (const Section& section : sections) {
    if (section.name == name) return section;
  }
  throw ParseError("checkpoint: missing section '" + std::string{name} + "'");
}

/// Runs one codec decoder over a section and requires it to consume the
/// payload exactly.
template <typename Fn>
auto decode_section(const std::vector<Section>& sections,
                    std::string_view name, Fn&& decode) {
  const Section& section = find_section(sections, name);
  ByteReader reader{section.payload};
  auto value = decode(reader);
  if (reader.remaining() != 0) {
    throw ParseError("checkpoint: section '" + std::string{name} + "' has " +
                     std::to_string(reader.remaining()) + " trailing bytes");
  }
  return value;
}

Section make_section(std::string name, ByteWriter writer) {
  return Section{std::move(name), writer.take()};
}

}  // namespace

std::string epoch_filename(std::uint64_t epoch) {
  std::string digits = std::to_string(epoch);
  if (digits.size() < 4) digits.insert(0, 4 - digits.size(), '0');
  return "epoch-" + digits + ".snap";
}

std::vector<std::uint8_t> encode_snapshot(std::uint64_t fingerprint,
                                          const std::vector<Section>& sections) {
  ByteWriter writer;
  writer.u32(kSnapshotMagic);
  writer.u32(kSnapshotVersion);
  writer.u64(fingerprint);
  writer.u32(static_cast<std::uint32_t>(sections.size()));
  for (const Section& section : sections) {
    writer.u32(static_cast<std::uint32_t>(section.name.size()));
    writer.text(section.name);
    writer.u64(section.payload.size());
    writer.bytes(section.payload);
    writer.u32(crc32(section.payload));
  }
  writer.u32(crc32(writer.data()));
  writer.u32(kSnapshotEndMagic);
  return writer.take();
}

DecodedSnapshot decode_snapshot(std::span<const std::uint8_t> bytes) {
  // The trailer protects everything before it; verify it first so any
  // single flipped bit anywhere in the file is caught regardless of
  // whether it would also break structural parsing.
  if (bytes.size() < 8) {
    throw ParseError("snapshot: file too short for trailer");
  }
  {
    ByteReader trailer{bytes.subspan(bytes.size() - 8)};
    const std::uint32_t stored_crc = trailer.u32();
    const std::uint32_t end_magic = trailer.u32();
    if (end_magic != kSnapshotEndMagic) {
      throw ParseError("snapshot: missing end marker (truncated file?)");
    }
    if (crc32(bytes.first(bytes.size() - 8)) != stored_crc) {
      throw ParseError("snapshot: file checksum mismatch");
    }
  }

  ByteReader reader{bytes.first(bytes.size() - 8)};
  if (reader.u32() != kSnapshotMagic) {
    throw ParseError("snapshot: bad magic");
  }
  const std::uint32_t version = reader.u32();
  if (version != kSnapshotVersion) {
    throw ParseError("snapshot: unsupported format version " +
                     std::to_string(version));
  }
  DecodedSnapshot decoded;
  decoded.fingerprint = reader.u64();
  const std::uint32_t section_count = reader.u32();
  if (section_count > reader.remaining() / 16) {
    throw ParseError("snapshot: implausible section count " +
                     std::to_string(section_count));
  }
  decoded.sections.reserve(section_count);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    Section section;
    const std::uint32_t name_length = reader.u32();
    section.name = reader.fixed_text(name_length);
    const std::uint64_t payload_length = reader.u64();
    if (payload_length > reader.remaining()) {
      throw ParseError("snapshot: section '" + section.name +
                       "' length exceeds file size");
    }
    section.payload = reader.bytes(static_cast<std::size_t>(payload_length));
    const std::uint32_t stored_crc = reader.u32();
    if (crc32(section.payload) != stored_crc) {
      throw ParseError("snapshot: section '" + section.name +
                       "' checksum mismatch");
    }
    decoded.sections.push_back(std::move(section));
  }
  if (reader.remaining() != 0) {
    throw ParseError("snapshot: " + std::to_string(reader.remaining()) +
                     " trailing bytes after last section");
  }
  return decoded;
}

CheckpointStore::CheckpointStore(CheckpointOptions options,
                                 std::uint64_t fingerprint)
    : options_(std::move(options)), fingerprint_(fingerprint) {
  if (enabled()) fs::create_directories(options_.directory);
}

void CheckpointStore::quarantine(const std::string& path, bool stale) {
  std::error_code ec;
  // Best-effort evidence move, not a durability publish: resume
  // correctness only requires that the bad checkpoint stop matching the
  // live naming scheme, which the rename achieves even if it is lost in
  // a crash (the next scan simply re-quarantines).
  // repro-lint: allow(RL010) quarantine rename is not a durability publish
  fs::rename(path, unique_quarantine_path(path), ec);
  if (ec) fs::remove(path, ec);  // last resort: never resume from it
  ++activity_.quarantined;
  if (stale) ++activity_.stale;
}

void CheckpointStore::save_epoch(const EpochCut& cut) {
  if (!enabled()) return;
  ByteWriter meta_writer;
  meta_writer.u64(cut.epoch);
  meta_writer.u64(cut.wal_records);
  meta_writer.u64(cut.event_total);
  meta_writer.u64(cut.db.samples().size());
  for (const std::uint64_t reclassified : cut.epm_reclassified) {
    meta_writer.u64(reclassified);
  }
  ByteWriter samples_writer;
  write_enrichment_column(samples_writer, cut.db.samples());
  ByteWriter stats_writer;
  write_enrichment_stats(stats_writer, cut.enrichment);
  ByteWriter fault_writer;
  write_fault_report(fault_writer, cut.fault_report);
  ByteWriter e_writer;
  write_epm_result(e_writer, cut.epm.e);
  ByteWriter p_writer;
  write_epm_result(p_writer, cut.epm.p);
  ByteWriter m_writer;
  write_epm_result(m_writer, cut.epm.m);
  ByteWriter b_writer;
  write_behavioral_view(b_writer, cut.behavioral);
  const std::vector<std::uint8_t> bytes = encode_snapshot(
      fingerprint_,
      {make_section("epoch-meta", std::move(meta_writer)),
       make_section("samples", std::move(samples_writer)),
       make_section("enrichment", std::move(stats_writer)),
       make_section("fault-report", std::move(fault_writer)),
       make_section("epsilon", std::move(e_writer)),
       make_section("pi", std::move(p_writer)),
       make_section("mu", std::move(m_writer)),
       make_section("behavioral", std::move(b_writer)),
       Section{"ingest", {cut.ingest_blob.begin(), cut.ingest_blob.end()}}});
  const std::string path =
      (fs::path{options_.directory} / epoch_filename(cut.epoch)).string();
  if (options_.short_write_epoch == static_cast<int>(cut.epoch) + 1) {
    // Simulated crash mid-write: half the bytes reach the temp file,
    // which is never fsynced or renamed over the final name.
    std::ofstream{path + ".tmp", std::ios::binary | std::ios::trunc}.write(
        reinterpret_cast<const char*>(bytes.data()),
        static_cast<std::streamsize>(bytes.size() / 2));
    throw CheckpointInterrupted("simulated crash mid-write of epoch " +
                                std::to_string(cut.epoch));
  }
  atomic_write(path, bytes, "checkpoint");
  ++activity_.saved;
  activity_.bytes_written += bytes.size();
}

std::optional<EpochStage> CheckpointStore::load_latest_epoch() {
  if (!enabled()) return std::nullopt;
  // Collect every "epoch-NNNN.snap" present, newest first.
  std::vector<std::pair<std::uint64_t, std::string>> candidates;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("epoch-") || !name.ends_with(".snap")) continue;
    const std::string digits =
        name.substr(6, name.size() - 6 - std::string_view{".snap"}.size());
    if (digits.empty() || digits.size() > 19) continue;
    std::uint64_t index = 0;
    bool numeric = true;
    for (const char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      index = index * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (!numeric) continue;
    candidates.emplace_back(index, entry.path().string());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [index, path] : candidates) {
    try {
      DecodedSnapshot decoded = decode_snapshot(read_file(path));
      if (decoded.fingerprint != fingerprint_) {
        quarantine(path, /*stale=*/true);
        continue;
      }
      EpochStage stage;
      decode_section(decoded.sections, "epoch-meta", [&](ByteReader& reader) {
        stage.epoch = reader.u64();
        stage.wal_records = reader.u64();
        stage.event_total = reader.u64();
        stage.sample_count = reader.u64();
        for (std::uint64_t& reclassified : stage.epm_reclassified) {
          reclassified = reader.u64();
        }
        return 0;
      });
      if (stage.epoch != index) {
        throw ParseError("snapshot: epoch file " + path +
                         " holds epoch " + std::to_string(stage.epoch));
      }
      if (stage.wal_records > stage.event_total) {
        throw ParseError("snapshot: epoch file " + path + " covers " +
                         std::to_string(stage.wal_records) +
                         " records of a " +
                         std::to_string(stage.event_total) +
                         "-record stream");
      }
      stage.samples =
          decode_section(decoded.sections, "samples", read_enrichment_column);
      stage.enrichment = decode_section(decoded.sections, "enrichment",
                                        read_enrichment_stats);
      stage.fault_report = decode_section(decoded.sections, "fault-report",
                                          read_fault_report);
      stage.epm.e = decode_section(decoded.sections, "epsilon", read_epm_result);
      stage.epm.p = decode_section(decoded.sections, "pi", read_epm_result);
      stage.epm.m = decode_section(decoded.sections, "mu", read_epm_result);
      stage.behavioral =
          decode_section(decoded.sections, "behavioral", read_behavioral_view);
      stage.ingest_blob = find_section(decoded.sections, "ingest").payload;
      return stage;
    } catch (const ParseError&) {
    } catch (const ConfigError&) {
    }
    quarantine(path, /*stale=*/false);
  }
  return std::nullopt;
}

bool CheckpointStore::apply_epoch(
    const EpochStage& stage, honeypot::EventDatabase& db,
    const std::function<void(const honeypot::EventDatabase&)>& prime) {
  std::vector<honeypot::MalwareSample>& samples = db.samples_mutable();
  bool matches = stage.sample_count == samples.size() &&
                 stage.samples.size() == samples.size();
  for (std::size_t i = 0; matches && i < samples.size(); ++i) {
    matches = stage.samples[i].md5 == samples[i].md5;
  }
  if (matches) {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const SampleEnrichment& entry = stage.samples[i];
      samples[i].profile = entry.profile;
      samples[i].av_label = entry.av_label;
      samples[i].label_missing = entry.label_missing;
    }
    try {
      db.check_consistency();
      prime(db);
      ++activity_.restored;
      return true;
    } catch (const ParseError&) {
    } catch (const ConfigError&) {
    }
  }
  decline_epoch(stage);
  return false;
}

void CheckpointStore::decline_epoch(const EpochStage& stage) {
  quarantine(
      (fs::path{options_.directory} / epoch_filename(stage.epoch)).string(),
      /*stale=*/false);
}

}  // namespace repro::snapshot
