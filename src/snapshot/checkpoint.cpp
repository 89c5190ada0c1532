#include "snapshot/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "cluster/backend.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/crc32.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"

namespace repro::snapshot {

namespace {

namespace fs = std::filesystem;

[[noreturn]] void throw_io(const std::string& action, const std::string& path) {
  throw IoError("checkpoint: cannot " + action + " " + path + ": " +
                std::strerror(errno));
}

/// Writes `bytes` to `path` atomically and durably: the data goes to
/// "<path>.tmp" first, is fsynced, renamed over `path`, and the parent
/// directory is fsynced so the rename itself survives a crash. A
/// partial write therefore only ever leaves a ".tmp" file behind —
/// never a half-written snapshot under the final name.
/// `short_write` truncates the temp file halfway and reports false
/// without renaming (the mid-write crash seam).
bool atomic_write(const std::string& path, std::span<const std::uint8_t> bytes,
                  bool short_write) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("open", tmp);
  const std::size_t count = short_write ? bytes.size() / 2 : bytes.size();
  std::size_t written = 0;
  while (written < count) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, count - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_io("write", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (short_write) {
    ::close(fd);  // deliberately no fsync, no rename: simulated crash
    return false;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_io("fsync", tmp);
  }
  if (::close(fd) != 0) throw_io("close", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) throw_io("rename", tmp);
  const fs::path dir = fs::path{path}.parent_path();
  const int dir_fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) throw_io("open directory", dir.string());
  if (::fsync(dir_fd) != 0) {
    ::close(dir_fd);
    throw_io("fsync directory", dir.string());
  }
  ::close(dir_fd);
  return true;
}

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

std::string_view stage_name(Stage stage) {
  switch (stage) {
    case Stage::kLandscape:
      return "landscape";
    case Stage::kDatabase:
      return "database";
    case Stage::kEpm:
      return "epm";
    case Stage::kBehavioral:
      return "behavioral";
    case Stage::kEpoch:
      return "epoch";
  }
  return "unknown";
}

std::string stage_filename(Stage stage) {
  return "stage" + std::to_string(static_cast<int>(stage)) + "-" +
         std::string{stage_name(stage)} + ".snap";
}

std::string epoch_filename(std::uint64_t epoch) {
  std::string digits = std::to_string(epoch);
  if (digits.size() < 4) digits.insert(0, 4 - digits.size(), '0');
  return "epoch-" + digits + ".snap";
}

std::vector<std::uint8_t> encode_snapshot(Stage stage,
                                          std::uint64_t fingerprint,
                                          const std::vector<Section>& sections) {
  ByteWriter writer;
  writer.u32(kSnapshotMagic);
  writer.u32(kSnapshotVersion);
  writer.u8(static_cast<std::uint8_t>(stage));
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
  const std::uint8_t stage = reader.u8();
  if (stage < static_cast<std::uint8_t>(Stage::kLandscape) ||
      stage > static_cast<std::uint8_t>(Stage::kEpoch)) {
    throw ParseError("snapshot: out-of-range stage " + std::to_string(stage));
  }
  decoded.stage = static_cast<Stage>(stage);
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

void CheckpointStore::save_file(const std::string& filename, Stage stage,
                                const std::vector<Section>& sections,
                                bool short_write,
                                const std::string& crash_label) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(stage, fingerprint_, sections);
  const std::string path =
      (fs::path{options_.directory} / filename).string();
  if (!atomic_write(path, bytes, short_write)) {
    throw CheckpointInterrupted("simulated crash mid-write of " + crash_label);
  }
  ++activity_.saved;
  activity_.bytes_written += bytes.size();
}

void CheckpointStore::save_stage(Stage stage,
                                 const std::vector<Section>& sections) {
  if (!enabled()) return;
  save_file(stage_filename(stage), stage, sections,
            options_.short_write_stage == static_cast<int>(stage),
            "stage " + std::string{stage_name(stage)});
  if (options_.stop_after_stage == static_cast<int>(stage)) {
    throw CheckpointInterrupted("simulated crash after stage " +
                                std::string{stage_name(stage)});
  }
}

std::optional<std::vector<Section>> CheckpointStore::load_stage(Stage stage) {
  if (!enabled()) return std::nullopt;
  const std::string path =
      (fs::path{options_.directory} / stage_filename(stage)).string();
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) return std::nullopt;
  try {
    DecodedSnapshot decoded = decode_snapshot(read_file(path));
    if (decoded.stage != stage) {
      throw ParseError("snapshot: file contains stage " +
                       std::string{stage_name(decoded.stage)} +
                       " but was named for " + std::string{stage_name(stage)});
    }
    if (decoded.fingerprint != fingerprint_) {
      quarantine(path, /*stale=*/true);
      return std::nullopt;
    }
    ++activity_.restored;
    return std::move(decoded.sections);
  } catch (const ParseError&) {
    quarantine(path, /*stale=*/false);
    return std::nullopt;
  }
}

std::optional<std::vector<std::uint8_t>> read_whole_file(
    const std::string& path) {
  struct Descriptor {
    int fd;
    ~Descriptor() {
      if (fd >= 0) ::close(fd);
    }
  } file{::open(path.c_str(), O_RDONLY)};
  if (file.fd < 0) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  struct stat info {};
  if (::fstat(file.fd, &info) == 0 && info.st_size > 0) {
    bytes.reserve(static_cast<std::size_t>(info.st_size));
  }
  // Appending through a fixed chunk grows the buffer only by what each
  // read delivered: a file that shrank after the fstat yields its real
  // bytes, never zero padding up to the stale size.
  std::array<std::uint8_t, std::size_t{1} << 16> chunk{};
  while (true) {
    const ::ssize_t n = ::read(file.fd, chunk.data(), chunk.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + n);
  }
  return bytes;
}

std::string unique_quarantine_path(const std::string& path) {
  std::string candidate = path + ".quarantined";
  std::error_code ec;
  for (std::uint64_t n = 2; fs::exists(candidate, ec); ++n) {
    candidate = path + ".quarantined-" + std::to_string(n);
  }
  return candidate;
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

void CheckpointStore::save_landscape(const malware::Landscape& landscape) {
  if (!enabled()) return;
  ByteWriter writer;
  write_landscape(writer, landscape);
  save_stage(Stage::kLandscape,
             {make_section("landscape", std::move(writer))});
}

std::optional<malware::Landscape> CheckpointStore::load_landscape() {
  const auto sections = load_stage(Stage::kLandscape);
  if (!sections.has_value()) return std::nullopt;
  try {
    malware::Landscape landscape =
        decode_section(*sections, "landscape", read_landscape);
    // A decoded landscape must satisfy the same cross-reference
    // invariants as a freshly built one.
    landscape.validate();
    return landscape;
  } catch (const ParseError&) {
  } catch (const ConfigError&) {
  }
  quarantine(
      (fs::path{options_.directory} / stage_filename(Stage::kLandscape))
          .string(),
      /*stale=*/false);
  --activity_.restored;
  return std::nullopt;
}

void CheckpointStore::save_database(const DatabaseStage& stage) {
  if (!enabled()) return;
  ByteWriter db_writer;
  write_database(db_writer, stage.db);
  ByteWriter stats_writer;
  write_enrichment_stats(stats_writer, stage.enrichment);
  ByteWriter fault_writer;
  write_fault_report(fault_writer, stage.fault_report);
  save_stage(Stage::kDatabase,
             {make_section("database", std::move(db_writer)),
              make_section("enrichment", std::move(stats_writer)),
              make_section("fault-report", std::move(fault_writer))});
}

std::optional<DatabaseStage> CheckpointStore::load_database() {
  const auto sections = load_stage(Stage::kDatabase);
  if (!sections.has_value()) return std::nullopt;
  try {
    DatabaseStage stage;
    stage.db = decode_section(*sections, "database", read_database);
    stage.enrichment =
        decode_section(*sections, "enrichment", read_enrichment_stats);
    stage.fault_report =
        decode_section(*sections, "fault-report", read_fault_report);
    stage.db.check_consistency();
    return stage;
  } catch (const ParseError&) {
  } catch (const ConfigError&) {
  }
  quarantine(
      (fs::path{options_.directory} / stage_filename(Stage::kDatabase))
          .string(),
      /*stale=*/false);
  --activity_.restored;
  return std::nullopt;
}

void CheckpointStore::save_epm(const EpmStage& stage) {
  if (!enabled()) return;
  ByteWriter e_writer;
  write_epm_result(e_writer, stage.e);
  ByteWriter p_writer;
  write_epm_result(p_writer, stage.p);
  ByteWriter m_writer;
  write_epm_result(m_writer, stage.m);
  save_stage(Stage::kEpm, {make_section("epsilon", std::move(e_writer)),
                           make_section("pi", std::move(p_writer)),
                           make_section("mu", std::move(m_writer))});
}

std::optional<EpmStage> CheckpointStore::load_epm() {
  const auto sections = load_stage(Stage::kEpm);
  if (!sections.has_value()) return std::nullopt;
  try {
    EpmStage stage;
    stage.e = decode_section(*sections, "epsilon", read_epm_result);
    stage.p = decode_section(*sections, "pi", read_epm_result);
    stage.m = decode_section(*sections, "mu", read_epm_result);
    return stage;
  } catch (const ParseError&) {
  }
  quarantine((fs::path{options_.directory} / stage_filename(Stage::kEpm))
                 .string(),
             /*stale=*/false);
  --activity_.restored;
  return std::nullopt;
}

void CheckpointStore::save_behavioral(const analysis::BehavioralView& view,
                                      cluster::BackendKind backend) {
  if (!enabled()) return;
  ByteWriter meta_writer;
  meta_writer.u8(static_cast<std::uint8_t>(backend));
  ByteWriter writer;
  write_behavioral_view(writer, view);
  save_stage(Stage::kBehavioral,
             {make_section("behavioral-meta", std::move(meta_writer)),
              make_section("behavioral", std::move(writer))});
}

void CheckpointStore::save_epoch(const EpochCut& cut) {
  if (!enabled()) return;
  ByteWriter meta_writer;
  meta_writer.u64(cut.epoch);
  meta_writer.u64(cut.wal_records);
  meta_writer.u8(static_cast<std::uint8_t>(cut.b_backend));
  meta_writer.u64(cut.db.samples().size());
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
  const auto blob = [](std::string name, std::span<const std::uint8_t> bytes) {
    return Section{std::move(name), {bytes.begin(), bytes.end()}};
  };
  const int ordinal = static_cast<int>(cut.epoch) + 1;
  save_file(epoch_filename(cut.epoch), Stage::kEpoch,
            {make_section("epoch-meta", std::move(meta_writer)),
             make_section("samples", std::move(samples_writer)),
             make_section("enrichment", std::move(stats_writer)),
             make_section("fault-report", std::move(fault_writer)),
             make_section("epsilon", std::move(e_writer)),
             make_section("pi", std::move(p_writer)),
             make_section("mu", std::move(m_writer)),
             make_section("behavioral", std::move(b_writer)),
             blob("ingest", cut.ingest_blob),
             blob("epsilon-counts", cut.e_counts),
             blob("pi-counts", cut.p_counts),
             blob("mu-counts", cut.m_counts),
             blob("signatures", cut.signature_blob)},
            options_.short_write_epoch == ordinal,
            "epoch " + std::to_string(cut.epoch));
  if (options_.stop_after_epoch == ordinal) {
    throw CheckpointInterrupted("simulated crash after epoch " +
                                std::to_string(cut.epoch));
  }
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
      if (decoded.stage != Stage::kEpoch) {
        throw ParseError("snapshot: epoch file contains stage " +
                         std::string{stage_name(decoded.stage)});
      }
      if (decoded.fingerprint != fingerprint_) {
        quarantine(path, /*stale=*/true);
        continue;
      }
      EpochStage stage;
      decode_section(decoded.sections, "epoch-meta", [&](ByteReader& reader) {
        stage.epoch = reader.u64();
        stage.wal_records = reader.u64();
        stage.b_backend = cluster::backend_kind_from_tag(reader.u8());
        stage.sample_count = reader.u64();
        return 0;
      });
      if (stage.epoch != index) {
        throw ParseError("snapshot: epoch file " + path +
                         " holds epoch " + std::to_string(stage.epoch));
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
      stage.e_counts = find_section(decoded.sections, "epsilon-counts").payload;
      stage.p_counts = find_section(decoded.sections, "pi-counts").payload;
      stage.m_counts = find_section(decoded.sections, "mu-counts").payload;
      stage.signature_blob =
          find_section(decoded.sections, "signatures").payload;
      ++activity_.restored;
      return stage;
    } catch (const ParseError&) {
    } catch (const ConfigError&) {
    }
    quarantine(path, /*stale=*/false);
  }
  return std::nullopt;
}

bool CheckpointStore::apply_epoch(const EpochStage& stage,
                                  honeypot::EventDatabase& db) {
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
      return true;
    } catch (const ConfigError&) {
    }
  }
  quarantine(
      (fs::path{options_.directory} / epoch_filename(stage.epoch)).string(),
      /*stale=*/false);
  --activity_.restored;
  return false;
}

std::optional<analysis::BehavioralView> CheckpointStore::load_behavioral(
    cluster::BackendKind expected) {
  const auto sections = load_stage(Stage::kBehavioral);
  if (!sections.has_value()) return std::nullopt;
  const std::string path =
      (fs::path{options_.directory} / stage_filename(Stage::kBehavioral))
          .string();
  try {
    const cluster::BackendKind backend =
        decode_section(*sections, "behavioral-meta", [](ByteReader& reader) {
          return cluster::backend_kind_from_tag(reader.u8());
        });
    if (backend != expected) {
      // Produced by another backend: stale by configuration, exactly
      // like a fingerprint mismatch — quarantine and recompute.
      quarantine(path, /*stale=*/true);
      --activity_.restored;
      return std::nullopt;
    }
    return decode_section(*sections, "behavioral", read_behavioral_view);
  } catch (const ParseError&) {
  }
  quarantine(path, /*stale=*/false);
  --activity_.restored;
  return std::nullopt;
}

}  // namespace repro::snapshot
