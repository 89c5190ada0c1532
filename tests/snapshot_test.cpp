// Tests for the snapshot subsystem: codec round-trips, container
// integrity (CRC, truncation, bit flips), epoch-cut durability and the
// kill-resume guarantee of the durable one-shot build (a run
// interrupted anywhere resumes to output byte-identical to the batch
// build).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv_export.hpp"
#include "scenario/paper.hpp"
#include "scenario/stream.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/crc32.hpp"
#include "snapshot/durable_file.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"

namespace repro::snapshot {
namespace {

namespace fs = std::filesystem;

scenario::ScenarioOptions small_options() {
  scenario::ScenarioOptions options;
  options.scale = 0.03;
  options.seed = 7;
  return options;
}

/// One tiny shared batch dataset for codec tests and as the
/// byte-identical baseline of the resume tests.
const scenario::Dataset& dataset() {
  static const scenario::Dataset ds =
      scenario::build_paper_dataset(small_options());
  return ds;
}

/// Every CSV artifact of a dataset concatenated — the observable output
/// the kill-resume guarantee is stated over.
std::string all_csv(const scenario::Dataset& ds) {
  std::ostringstream out;
  io::write_events_csv(out, ds.db, ds.e, ds.p, ds.m, ds.b);
  io::write_samples_csv(out, ds.db, ds.b);
  io::write_clusters_csv(out, ds.e);
  io::write_clusters_csv(out, ds.p);
  io::write_clusters_csv(out, ds.m);
  io::write_profiles_jsonl(out, ds.db);
  return out.str();
}

/// Fresh unique checkpoint directory under the test temp dir.
fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path{testing::TempDir()} / ("snap-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// --- CRC-32 -----------------------------------------------------------------

TEST(Crc32, KnownVector) {
  const std::string check = "123456789";
  const auto* data = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(crc32({data, check.size()}), 0xcbf43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> bytes(301);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const std::uint32_t one_shot = crc32(bytes);
  const std::uint32_t split =
      crc32(std::span{bytes}.subspan(100), crc32(std::span{bytes}.first(100)));
  EXPECT_EQ(one_shot, split);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> bytes{1, 2, 3, 4, 5};
  const std::uint32_t clean = crc32(bytes);
  bytes[2] ^= 0x10;
  EXPECT_NE(crc32(bytes), clean);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // The word-at-a-time fast path must agree with the textbook bitwise
  // definition for every length (including the sub-word tails) and for
  // unaligned starts.
  const auto reference = [](std::span<const std::uint8_t> data) {
    std::uint32_t c = 0xffff'ffffu;
    for (const std::uint8_t byte : data) {
      c ^= byte;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xedb8'8320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xffff'ffffu;
  };
  std::vector<std::uint8_t> bytes(80);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; offset + length <= bytes.size(); ++length) {
      const auto data = std::span{bytes}.subspan(offset, length);
      EXPECT_EQ(crc32(data), reference(data))
          << "offset " << offset << " length " << length;
    }
  }
}

// --- Codec round-trips ------------------------------------------------------

template <typename T, typename WriteFn, typename ReadFn>
void expect_roundtrip(const T& value, WriteFn write, ReadFn read) {
  ByteWriter writer;
  write(writer, value);
  const std::vector<std::uint8_t> first = writer.data();
  ByteReader reader{first};
  const T decoded = read(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  ByteWriter again;
  write(again, decoded);
  EXPECT_EQ(again.data(), first);
}

TEST(Codec, EnrichmentAndFaultReportRoundTrip) {
  honeypot::EnrichmentStats stats;
  stats.submitted = 11;
  stats.executed = 7;
  stats.failed = 3;
  stats.parse_failures = 2;
  stats.sandbox_faults = 1;
  stats.label_gaps = 5;
  expect_roundtrip(stats, write_enrichment_stats,
                   [](ByteReader& r) { return read_enrichment_stats(r); });

  fault::FaultReport report;
  report.attacks_lost_to_outage = 4;
  report.proxy_attempts = 9;
  report.proxy_failures = 2;
  report.proxy_retries = 1;
  report.refinements_abandoned = 1;
  report.proxy_backoff_seconds = -3;
  report.downloads_refused = 6;
  report.downloads_corrupted = 2;
  report.sandbox_failures = 3;
  report.av_label_gaps = 8;
  ByteWriter writer;
  write_fault_report(writer, report);
  ByteReader reader{writer.data()};
  const fault::FaultReport decoded = read_fault_report(reader);
  EXPECT_EQ(decoded.proxy_backoff_seconds, -3);
  EXPECT_EQ(decoded.av_label_gaps, 8u);
  ByteWriter again;
  write_fault_report(again, decoded);
  EXPECT_EQ(again.data(), writer.data());
}

TEST(Codec, EpmResultsRoundTripByteExactly) {
  for (const cluster::EpmResult* result :
       {&dataset().e, &dataset().p, &dataset().m}) {
    expect_roundtrip(*result, write_epm_result, read_epm_result);
  }
}

TEST(Codec, EpmRestoreRebuildsDerivedState) {
  ByteWriter writer;
  write_epm_result(writer, dataset().e);
  ByteReader reader{writer.data()};
  const cluster::EpmResult restored = read_epm_result(reader);
  EXPECT_EQ(restored.cluster_count(), dataset().e.cluster_count());
  EXPECT_EQ(restored.members, dataset().e.members);
  for (const honeypot::EventId id : dataset().e.event_ids) {
    EXPECT_EQ(restored.cluster_of_event(id), dataset().e.cluster_of_event(id));
  }
}

TEST(Codec, BehavioralViewRoundTripsByteExactly) {
  expect_roundtrip(dataset().b, write_behavioral_view, read_behavioral_view);
}

TEST(Codec, BehavioralRestoreAnswersSameQueries) {
  ByteWriter writer;
  write_behavioral_view(writer, dataset().b);
  ByteReader reader{writer.data()};
  const analysis::BehavioralView restored = read_behavioral_view(reader);
  EXPECT_EQ(restored.cluster_count(), dataset().b.cluster_count());
  EXPECT_EQ(restored.singleton_count(), dataset().b.singleton_count());
  for (honeypot::SampleId sample = 0;
       sample < dataset().db.samples().size(); ++sample) {
    EXPECT_EQ(restored.cluster_of_sample(sample),
              dataset().b.cluster_of_sample(sample));
  }
}

TEST(Codec, TruncatedPayloadThrowsParseError) {
  ByteWriter writer;
  write_enrichment_stats(writer, dataset().enrichment);
  const std::vector<std::uint8_t>& full = writer.data();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader reader{std::span{full}.first(cut)};
    EXPECT_THROW((void)read_enrichment_stats(reader), ParseError);
  }
}

/// Events of the shared dataset covering every optional block of the
/// event codec (gamma, pi, sample reference, refusal flag), one per
/// combination present.
std::vector<honeypot::AttackEvent> codec_events() {
  std::vector<honeypot::AttackEvent> picked;
  std::set<int> shapes;
  for (const honeypot::AttackEvent& event : dataset().db.events()) {
    const int shape = (event.gamma.has_value() ? 1 : 0) |
                      (event.pi.has_value() ? 2 : 0) |
                      (event.sample.has_value() ? 4 : 0) |
                      (event.download_refused ? 8 : 0);
    if (shapes.insert(shape).second) picked.push_back(event);
  }
  return picked;
}

TEST(Codec, CorruptedPayloadFailsSafely) {
  // Direct fuzz *below* the CRC layer of the event codec every WAL
  // record carries. Every truncation is a ParseError. A flipped bit may
  // decode to a different event, but then to a well-formed one that
  // re-encodes to exactly the bytes it consumed — never a crash, an
  // over-read or any other exception.
  const std::vector<honeypot::AttackEvent> events = codec_events();
  ASSERT_GE(events.size(), 2u);
  std::size_t rejected = 0;
  for (const honeypot::AttackEvent& event : events) {
    ByteWriter writer;
    write_attack_event(writer, event);
    const std::vector<std::uint8_t> bytes = writer.take();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      ByteReader reader{std::span{bytes}.first(cut)};
      EXPECT_THROW((void)read_attack_event(reader), ParseError)
          << "event " << event.id << " prefix length " << cut << " decoded";
    }
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mutated = bytes;
        mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
        ByteReader reader{mutated};
        try {
          const honeypot::AttackEvent decoded = read_attack_event(reader);
          ByteWriter again;
          write_attack_event(again, decoded);
          EXPECT_EQ(again.data(),
                    std::vector<std::uint8_t>(
                        mutated.begin(),
                        mutated.end() - static_cast<std::ptrdiff_t>(
                                            reader.remaining())))
              << "event " << event.id << " flip of bit " << bit
              << " in byte " << byte;
        } catch (const ParseError&) {
          ++rejected;
        }
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

// --- Epoch-cut enrichment column -------------------------------------------

/// A three-sample store covering every entry shape of the column: a
/// profiled and labeled sample, an unprofiled one, and a labeler gap.
std::vector<honeypot::MalwareSample> column_samples() {
  std::vector<honeypot::MalwareSample> samples(3);
  samples[0].md5 = "00112233445566778899aabbccddeeff";
  samples[0].profile = sandbox::BehavioralProfile{
      {"file|create|C:\\x.exe", "net|connect|tcp/445"}};
  samples[0].av_label = "W32.Allaple.A";
  samples[1].md5 = "ffeeddccbbaa99887766554433221100";
  samples[1].av_label = "Trojan.Gen";
  samples[2].md5 = "0123456789abcdef0123456789abcdef";
  samples[2].label_missing = true;
  return samples;
}

std::vector<std::uint8_t> column_bytes(
    std::span<const honeypot::MalwareSample> samples) {
  ByteWriter writer;
  write_enrichment_column(writer, samples);
  return writer.take();
}

TEST(Codec, EnrichmentColumnRoundTrips) {
  for (const std::vector<honeypot::MalwareSample>& samples :
       {column_samples(), dataset().db.samples()}) {
    const std::vector<std::uint8_t> bytes = column_bytes(samples);
    ByteReader reader{bytes};
    const std::vector<SampleEnrichment> column = read_enrichment_column(reader);
    EXPECT_EQ(reader.remaining(), 0u);
    ASSERT_EQ(column.size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(column[i].md5, samples[i].md5);
      EXPECT_EQ(column[i].profile, samples[i].profile);
      EXPECT_EQ(column[i].av_label, samples[i].av_label);
      EXPECT_EQ(column[i].label_missing, samples[i].label_missing);
    }
  }
}

TEST(Codec, EnrichmentColumnEveryTruncationIsRejected) {
  const std::vector<std::uint8_t> bytes = column_bytes(column_samples());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader reader{std::span{bytes}.first(cut)};
    EXPECT_THROW((void)read_enrichment_column(reader), ParseError)
        << "prefix length " << cut << " decoded";
  }
}

TEST(Codec, EnrichmentColumnSurvivesEverySingleBitFlip) {
  // Below the container CRCs a flipped bit may still decode (a different
  // md5 or label), but only ever to a well-formed column or a typed
  // ParseError — never a crash, an over-read or a runaway allocation.
  const std::vector<std::uint8_t> bytes = column_bytes(column_samples());
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      ByteReader reader{mutated};
      try {
        const std::vector<SampleEnrichment> column =
            read_enrichment_column(reader);
        EXPECT_LE(column.size(), mutated.size() / 10);
        for (const SampleEnrichment& entry : column) {
          EXPECT_FALSE(entry.label_missing && !entry.av_label.empty());
        }
      } catch (const ParseError&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(Codec, EnrichmentColumnHugeCountIsRejectedNotAllocated) {
  std::vector<std::uint8_t> bytes = column_bytes(column_samples());
  bytes[7] = 0x7f;  // count becomes ~2^62
  ByteReader reader{bytes};
  EXPECT_THROW((void)read_enrichment_column(reader), ParseError);
}

// --- Container format -------------------------------------------------------

std::vector<Section> sample_sections() {
  return {Section{"alpha", {1, 2, 3, 4, 5}},
          Section{"beta", {}},
          Section{"gamma", {0xff, 0x00, 0x7f}}};
}

TEST(Container, RoundTripPreservesSections) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(0xfeedbeefULL, sample_sections());
  const DecodedSnapshot decoded = decode_snapshot(bytes);
  EXPECT_EQ(decoded.fingerprint, 0xfeedbeefULL);
  ASSERT_EQ(decoded.sections.size(), 3u);
  EXPECT_EQ(decoded.sections[0].name, "alpha");
  EXPECT_EQ(decoded.sections[0].payload,
            (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(decoded.sections[1].name, "beta");
  EXPECT_TRUE(decoded.sections[1].payload.empty());
  EXPECT_EQ(decoded.sections[2].payload,
            (std::vector<std::uint8_t>{0xff, 0x00, 0x7f}));
}

TEST(Container, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(42, sample_sections());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)decode_snapshot(std::span{bytes}.first(cut)),
                 ParseError)
        << "prefix length " << cut << " decoded";
  }
}

TEST(Container, EverySingleBitFlipIsRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(7, sample_sections());
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW((void)decode_snapshot(mutated), ParseError)
          << "flip of bit " << bit << " in byte " << byte << " decoded";
    }
  }
}

TEST(Container, RejectsWrongVersion) {
  std::vector<std::uint8_t> bytes =
      encode_snapshot(7, sample_sections());
  // Bump the version field (offset 4) to the next, not yet written
  // version and fix up the trailer CRC so only the version check can
  // object.
  bytes[4] = static_cast<std::uint8_t>(kSnapshotVersion + 1);
  const std::uint32_t fixed =
      crc32(std::span{bytes}.first(bytes.size() - 8));
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(fixed >> (8 * i));
  }
  EXPECT_THROW((void)decode_snapshot(bytes), ParseError);
}

// --- Behavioral cluster-id validation (satellite bugfix) --------------------

/// Hand-crafts the behavioral-view wire payload: rows 0..n-1 mapped to
/// the given assignment, with a consistent sample map — so the dense
/// first-member-order check is the only thing that can reject it.
std::vector<std::uint8_t> behavioral_payload(
    const std::vector<int>& assignment) {
  ByteWriter writer;
  writer.u64(assignment.size());
  for (std::uint32_t row = 0; row < assignment.size(); ++row) {
    writer.u32(row);  // row i is sample i
  }
  writer.u64(assignment.size());
  for (const int cluster : assignment) {
    writer.u32(static_cast<std::uint32_t>(cluster));
  }
  writer.u64(assignment.size());  // sample map == assignment here
  for (const int cluster : assignment) {
    writer.u32(static_cast<std::uint32_t>(cluster));
  }
  return writer.data();
}

TEST(Codec, BehavioralDenseIdsRoundTrip) {
  const std::vector<std::uint8_t> bytes = behavioral_payload({0, 0, 1, 2, 1});
  ByteReader reader{bytes};
  const analysis::BehavioralView view = read_behavioral_view(reader);
  EXPECT_EQ(view.cluster_count(), 3u);
  EXPECT_EQ(view.cluster_of_sample(4), 1);
}

TEST(Codec, BehavioralGapIdsAreRejected) {
  // Regression: a CRC-valid snapshot with a gap in the cluster ids
  // (no cluster 1) used to restore a view with an empty member list —
  // which every consumer then indexed as if populated. It must be a
  // typed ParseError instead.
  const std::vector<std::uint8_t> bytes = behavioral_payload({0, 2, 0});
  ByteReader reader{bytes};
  EXPECT_THROW((void)read_behavioral_view(reader), ParseError);
}

TEST(Codec, BehavioralOutOfOrderIdsAreRejected) {
  // First-member ordering: cluster 1 may not appear before cluster 0.
  const std::vector<std::uint8_t> bytes = behavioral_payload({1, 0});
  ByteReader reader{bytes};
  EXPECT_THROW((void)read_behavioral_view(reader), ParseError);
}

TEST(Codec, BehavioralHugeIdIsRejectedNotAllocated) {
  // Regression: the member table was sized from max(assignment), so a
  // corrupt-but-CRC-valid snapshot carrying one huge id demanded an
  // unbounded allocation before any validation ran. The dense-order
  // check must fire first.
  const std::vector<std::uint8_t> bytes =
      behavioral_payload({0, 0x7fff'fff0});
  ByteReader reader{bytes};
  EXPECT_THROW((void)read_behavioral_view(reader), ParseError);
}

// --- CheckpointStore --------------------------------------------------------

/// The shared dataset's clustering results in cut form.
const EpmStage& dataset_epm() {
  static const EpmStage epm{dataset().e, dataset().p, dataset().m};
  return epm;
}

/// Epoch 2's cut of the shared dataset.
EpochCut dataset_cut() {
  const scenario::Dataset& ds = dataset();
  return EpochCut{.epoch = 2,
                  .wal_records = ds.db.events().size(),
                  .event_total = ds.db.events().size(),
                  .db = ds.db,
                  .enrichment = ds.enrichment,
                  .fault_report = ds.fault_report,
                  .epm = dataset_epm(),
                  .behavioral = ds.b,
                  .ingest_blob = {},
                  .epm_reclassified = {3, 5, 7}};
}

/// Writes epoch 2's cut of the shared dataset into `dir`.
void save_dataset_cut(const fs::path& dir, std::uint64_t fingerprint = 42) {
  CheckpointStore writer{CheckpointOptions{dir.string()}, fingerprint};
  writer.save_epoch(dataset_cut());
}

/// An apply_epoch priming step for callers that keep no derived state.
void prime_nothing(const honeypot::EventDatabase&) {}

/// The shared dataset's database as a WAL replay rebuilds it: every
/// event and sample, but no enrichment outputs.
honeypot::EventDatabase replayed_database() {
  honeypot::EventDatabase db = dataset().db;
  for (honeypot::MalwareSample& sample : db.samples_mutable()) {
    sample.profile.reset();
    sample.av_label.clear();
    sample.label_missing = false;
  }
  return db;
}

TEST(Store, DisabledStoreIsInert) {
  CheckpointStore store{CheckpointOptions{}, 1};
  EXPECT_FALSE(store.enabled());
  store.save_epoch(dataset_cut());
  EXPECT_FALSE(store.load_latest_epoch().has_value());
  EXPECT_EQ(store.activity().saved, 0u);
}

TEST(Store, SaveThenLoadRestores) {
  const fs::path dir = fresh_dir("save-load");
  save_dataset_cut(dir, 99);
  EXPECT_TRUE(fs::exists(dir / epoch_filename(2)));

  CheckpointStore reader{CheckpointOptions{dir.string()}, 99};
  const auto loaded = reader.load_latest_epoch();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 2u);
  EXPECT_EQ(loaded->wal_records, dataset().db.events().size());
  EXPECT_EQ(loaded->sample_count, dataset().db.samples().size());
  EXPECT_EQ(loaded->samples.size(), dataset().db.samples().size());
  EXPECT_EQ(loaded->epm_reclassified, (EpmReclassified{3, 5, 7}));
  EXPECT_EQ(loaded->epm.e.cluster_count(), dataset().e.cluster_count());
  EXPECT_EQ(loaded->behavioral.cluster_count(), dataset().b.cluster_count());
  // Loading is not restoring: the caller may still decline the cut.
  EXPECT_EQ(reader.activity().restored, 0u);
  honeypot::EventDatabase db = replayed_database();
  ASSERT_TRUE(reader.apply_epoch(*loaded, db, prime_nothing));
  EXPECT_EQ(reader.activity().restored, 1u);
}

TEST(Store, StaleFingerprintIsQuarantinedNotLoaded) {
  const fs::path dir = fresh_dir("stale");
  save_dataset_cut(dir, 1000);

  CheckpointStore reader{CheckpointOptions{dir.string()}, 2000};
  EXPECT_FALSE(reader.load_latest_epoch().has_value());
  EXPECT_EQ(reader.activity().stale, 1u);
  EXPECT_EQ(reader.activity().quarantined, 1u);
  EXPECT_FALSE(fs::exists(dir / epoch_filename(2)));
  EXPECT_TRUE(fs::exists(dir / (epoch_filename(2) + ".quarantined")));
}

TEST(Store, RepeatedQuarantinesKeepEveryPieceOfEvidence) {
  // Regression: quarantining used a fixed ".quarantined" name, so a
  // second stale/corrupt file silently overwrote the evidence of the
  // first. unique_quarantine_path must probe "-2", "-3", ... instead.
  const fs::path dir = fresh_dir("quarantine-unique");
  const fs::path path = dir / epoch_filename(2);
  EXPECT_EQ(unique_quarantine_path(path.string()),
            path.string() + ".quarantined");
  { std::ofstream out{path.string() + ".quarantined"}; }
  EXPECT_EQ(unique_quarantine_path(path.string()),
            path.string() + ".quarantined-2");
  { std::ofstream out{path.string() + ".quarantined-2"}; }
  EXPECT_EQ(unique_quarantine_path(path.string()),
            path.string() + ".quarantined-3");

  // End to end: two stale cuts quarantined back to back land in
  // distinct files.
  for (int round = 0; round < 2; ++round) {
    save_dataset_cut(dir, 1000);
    CheckpointStore reader{CheckpointOptions{dir.string()}, 2000};
    EXPECT_FALSE(reader.load_latest_epoch().has_value());
  }
  EXPECT_TRUE(fs::exists(path.string() + ".quarantined-3"));
  EXPECT_TRUE(fs::exists(path.string() + ".quarantined-4"));
}

TEST(Store, CorruptFileIsQuarantinedNotLoaded) {
  const fs::path dir = fresh_dir("corrupt");
  save_dataset_cut(dir, 5);

  // Flip one byte in the middle of the file.
  const fs::path path = dir / epoch_filename(2);
  std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
  file.seekp(static_cast<std::streamoff>(fs::file_size(path) / 2));
  file.put('\x7e');
  file.close();

  CheckpointStore reader{CheckpointOptions{dir.string()}, 5};
  EXPECT_FALSE(reader.load_latest_epoch().has_value());
  EXPECT_EQ(reader.activity().quarantined, 1u);
  EXPECT_EQ(reader.activity().stale, 0u);
  EXPECT_FALSE(fs::exists(path));
}

TEST(Store, GarbageFileIsQuarantinedNotLoaded) {
  const fs::path dir = fresh_dir("garbage");
  {
    std::ofstream out{dir / epoch_filename(0), std::ios::binary};
    out << "not a snapshot at all";
  }
  CheckpointStore store{CheckpointOptions{dir.string()}, 5};
  EXPECT_FALSE(store.load_latest_epoch().has_value());
  EXPECT_EQ(store.activity().quarantined, 1u);
}

TEST(Store, EpochCutCompletesTheReplayedDatabase) {
  const fs::path dir = fresh_dir("epoch-apply");
  save_dataset_cut(dir);

  CheckpointStore reader{CheckpointOptions{dir.string()}, 42};
  const auto loaded = reader.load_latest_epoch();
  ASSERT_TRUE(loaded.has_value());
  honeypot::EventDatabase db = replayed_database();
  ASSERT_TRUE(reader.apply_epoch(*loaded, db, prime_nothing));
  EXPECT_NO_THROW(db.check_consistency());
  const std::vector<honeypot::MalwareSample>& expected =
      dataset().db.samples();
  ASSERT_EQ(db.samples().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(db.samples()[i].profile, expected[i].profile) << "sample " << i;
    EXPECT_EQ(db.samples()[i].av_label, expected[i].av_label)
        << "sample " << i;
    EXPECT_EQ(db.samples()[i].label_missing, expected[i].label_missing)
        << "sample " << i;
  }
  const std::string& md5 = expected.front().md5;
  EXPECT_EQ(db.find_by_md5(md5), dataset().db.find_by_md5(md5));
  EXPECT_EQ(reader.activity().restored, 1u);
  EXPECT_EQ(reader.activity().quarantined, 0u);
}

TEST(Store, CutThatCannotPrimeTheCallerIsQuarantined) {
  // The replay matched, but the caller's derived state cannot be rebuilt
  // from the cut: it is set aside, never counted as restored.
  for (const bool parse_error : {true, false}) {
    const fs::path dir =
        fresh_dir(parse_error ? "prime-parse" : "prime-config");
    save_dataset_cut(dir);

    CheckpointStore reader{CheckpointOptions{dir.string()}, 42};
    const auto loaded = reader.load_latest_epoch();
    ASSERT_TRUE(loaded.has_value());
    honeypot::EventDatabase db = replayed_database();
    EXPECT_FALSE(reader.apply_epoch(
        *loaded, db, [parse_error](const honeypot::EventDatabase&) {
          if (parse_error) throw ParseError("unreadable engine state");
          throw ConfigError("engine state disagrees with the replay");
        }));
    EXPECT_EQ(reader.activity().restored, 0u);
    EXPECT_EQ(reader.activity().quarantined, 1u);
    EXPECT_FALSE(fs::exists(dir / epoch_filename(2)));
  }
}

// --- Kill-resume of the durable one-shot build ------------------------------
//
// The batch build does not checkpoint; the durable one-shot build is the
// streaming epoch loop with a single epoch (`--epochs 1 --wal-dir`).
// These tests pin its kill-resume guarantee against the batch output;
// tests/stream_test.cpp tortures the multi-epoch loop.

/// An on_epoch hook that simulates the process dying right after the
/// cut of 1-based epoch `epoch` is durable.
auto crash_after_epoch(std::size_t epoch) {
  return [epoch](const honeypot::EventDatabase&, const EpmStage&,
                 const analysis::BehavioralView&, std::size_t durable) {
    if (durable == epoch) throw CheckpointInterrupted{"crash after the cut"};
  };
}

/// Durable one-shot options rooted under `root` (wal/ + ckpt/).
scenario::StreamOptions one_shot(const fs::path& root,
                                 scenario::ScenarioOptions& options,
                                 std::size_t epochs = 1) {
  options.checkpoint.directory = (root / "ckpt").string();
  scenario::StreamOptions stream;
  stream.epochs = epochs;
  stream.wal_dir = (root / "wal").string();
  return stream;
}

TEST(Resume, BatchBuildRejectsCheckpointDirectory) {
  scenario::ScenarioOptions options = small_options();
  options.checkpoint.directory = fresh_dir("batch-refuses").string();
  EXPECT_THROW((void)scenario::build_paper_dataset(options), ConfigError);
}

TEST(Resume, KilledAfterEachStageResumesByteIdentical) {
  // The one-shot build's durable steps: a WAL append mid-stream, a
  // segment seal, and the epoch cut. A kill after any of them resumes
  // byte-identical; only the kill after the cut restores it.
  const std::string baseline = all_csv(dataset());
  for (int step = 0; step < 3; ++step) {
    scenario::ScenarioOptions options = small_options();
    const fs::path root = fresh_dir("kill-after-" + std::to_string(step));
    scenario::StreamOptions stream = one_shot(root, options);
    scenario::StreamOptions killed = stream;
    if (step == 0) {
      killed.after_append = [](std::uint64_t appended) {
        if (appended == 9) throw CheckpointInterrupted{"crash after append"};
      };
    } else if (step == 1) {
      killed.segment_bytes = 4096;
      killed.fail_after_seal = 1;
    } else {
      killed.on_epoch = crash_after_epoch(1);
    }
    EXPECT_THROW((void)scenario::build_streaming_dataset(options, killed),
                 CheckpointInterrupted)
        << "step " << step;
    const scenario::Dataset resumed =
        scenario::build_streaming_dataset(options, stream);
    EXPECT_EQ(all_csv(resumed), baseline) << "killed after step " << step;
    EXPECT_EQ(resumed.checkpoint_activity.restored, step == 2 ? 1u : 0u)
        << "killed after step " << step;
    EXPECT_EQ(resumed.ingest.epochs_run, step == 2 ? 0u : 1u)
        << "killed after step " << step;
    EXPECT_EQ(resumed.fault_report.proxy_attempts,
              dataset().fault_report.proxy_attempts);
  }
}

TEST(Resume, KilledMidWriteResumesByteIdentical) {
  scenario::ScenarioOptions options = small_options();
  const fs::path root = fresh_dir("kill-mid-write");
  const scenario::StreamOptions stream = one_shot(root, options);
  scenario::ScenarioOptions killed = options;
  killed.checkpoint.short_write_epoch = 1;
  EXPECT_THROW((void)scenario::build_streaming_dataset(killed, stream),
               CheckpointInterrupted);

  // The interrupted cut only left a ".tmp" file: nothing is restored,
  // the whole stream comes back from the WAL and is cut again.
  const scenario::Dataset resumed =
      scenario::build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(resumed), all_csv(dataset()));
  EXPECT_EQ(resumed.checkpoint_activity.restored, 0u);
  EXPECT_EQ(resumed.checkpoint_activity.saved, 1u);
  EXPECT_EQ(resumed.ingest.records_recovered, resumed.db.events().size());
}

TEST(Resume, RepeatedKillsStillConverge) {
  // Die mid-append, then mid-write of the cut, then right after the
  // cut; the fourth run finishes from the cut.
  scenario::ScenarioOptions options = small_options();
  const fs::path root = fresh_dir("kill-repeat");
  scenario::StreamOptions stream = one_shot(root, options);
  stream.after_append = [](std::uint64_t appended) {
    if (appended == 11) throw CheckpointInterrupted{"crash mid-append"};
  };
  EXPECT_THROW((void)scenario::build_streaming_dataset(options, stream),
               CheckpointInterrupted);
  stream.after_append = nullptr;
  scenario::ScenarioOptions killed = options;
  killed.checkpoint.short_write_epoch = 1;
  EXPECT_THROW((void)scenario::build_streaming_dataset(killed, stream),
               CheckpointInterrupted);
  scenario::StreamOptions stopped = stream;
  stopped.on_epoch = crash_after_epoch(1);
  EXPECT_THROW((void)scenario::build_streaming_dataset(options, stopped),
               CheckpointInterrupted);
  const scenario::Dataset resumed =
      scenario::build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(resumed), all_csv(dataset()));
  EXPECT_EQ(resumed.checkpoint_activity.restored, 1u);
}

TEST(Resume, CompletedRunRestoresEverythingOnRerun) {
  scenario::ScenarioOptions options = small_options();
  const fs::path root = fresh_dir("full-restore");
  const scenario::StreamOptions stream = one_shot(root, options);
  const scenario::Dataset first =
      scenario::build_streaming_dataset(options, stream);
  EXPECT_EQ(first.checkpoint_activity.saved, 1u);
  EXPECT_EQ(first.checkpoint_activity.restored, 0u);

  const scenario::Dataset second =
      scenario::build_streaming_dataset(options, stream);
  EXPECT_EQ(second.checkpoint_activity.restored, 1u);
  EXPECT_EQ(second.checkpoint_activity.saved, 0u);
  EXPECT_EQ(second.ingest.epochs_run, 0u);
  EXPECT_EQ(all_csv(second), all_csv(dataset()));
}

TEST(Resume, DifferentOptionsRejectExistingCheckpoints) {
  scenario::ScenarioOptions options = small_options();
  const fs::path root = fresh_dir("option-change");
  const scenario::StreamOptions stream = one_shot(root, options);
  (void)scenario::build_streaming_dataset(options, stream);

  // Same directories, different seed: nothing may be reused.
  scenario::ScenarioOptions other = options;
  other.seed = 8;
  const scenario::Dataset rebuilt =
      scenario::build_streaming_dataset(other, stream);
  EXPECT_EQ(rebuilt.checkpoint_activity.restored, 0u);
  EXPECT_EQ(rebuilt.checkpoint_activity.stale, 1u);
  EXPECT_EQ(rebuilt.checkpoint_activity.saved, 1u);
  EXPECT_GT(rebuilt.ingest.stale_segments, 0u);

  scenario::ScenarioOptions baseline_other = small_options();
  baseline_other.seed = 8;
  EXPECT_EQ(all_csv(rebuilt),
            all_csv(scenario::build_paper_dataset(baseline_other)));
}

TEST(Resume, QuarantinedStageFallsBackToRecompute) {
  // Two epochs; corrupt the newest cut. The resume quarantines it,
  // restores the previous cut and recomputes only the last epoch.
  scenario::ScenarioOptions options = small_options();
  const fs::path root = fresh_dir("quarantine-fallback");
  const scenario::StreamOptions stream = one_shot(root, options, 2);
  (void)scenario::build_streaming_dataset(options, stream);

  const fs::path path =
      fs::path{options.checkpoint.directory} / epoch_filename(1);
  std::fstream file{path, std::ios::in | std::ios::out | std::ios::binary};
  file.seekp(static_cast<std::streamoff>(fs::file_size(path) / 3));
  file.put('\x55');
  file.close();

  const scenario::Dataset resumed =
      scenario::build_streaming_dataset(options, stream);
  EXPECT_EQ(resumed.checkpoint_activity.quarantined, 1u);
  EXPECT_EQ(resumed.checkpoint_activity.restored, 1u);
  EXPECT_EQ(resumed.checkpoint_activity.saved, 1u);  // epoch 1 rewritten
  EXPECT_EQ(resumed.ingest.epochs_run, 1u);
  EXPECT_EQ(all_csv(resumed), all_csv(dataset()));
}

}  // namespace
}  // namespace repro::snapshot
