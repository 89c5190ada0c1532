// Tests for the streaming-ingest primitives: WAL framing, rotation and
// recovery (including the full torture corpus — every-offset truncation
// sweeps, bit flips, duplicate frames, kills mid-rotation, foreign
// streams) and the deterministic delivery retry/backoff layer.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "ingest/delivery.hpp"
#include "ingest/report.hpp"
#include "ingest/wal.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/crc32.hpp"
#include "util/error.hpp"
#include "util/simtime.hpp"

namespace repro::ingest {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFp = 0x5347'4e45'5400'1234ULL;

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path{testing::TempDir()} / ("wal-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

WalOptions small_wal(const fs::path& dir,
                     std::uint64_t segment_bytes = 1u << 20) {
  WalOptions options;
  options.directory = dir.string();
  options.segment_bytes = segment_bytes;
  return options;
}

/// Deterministic variable-length payload for record `i` (including an
/// empty one, which the frame format must support).
std::vector<std::uint8_t> payload(std::uint64_t i) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(i * 7 % 23));
  for (std::size_t j = 0; j < bytes.size(); ++j) {
    bytes[j] = static_cast<std::uint8_t>((i * 131 + j) & 0xff);
  }
  return bytes;
}

/// Recovered record `i`, read back from its segment file.
std::vector<std::uint8_t> record_at(const RecoveredWal& recovered,
                                    std::uint64_t i) {
  WalReader reader{recovered.records};
  const std::span<const std::uint8_t> bytes = reader.read(i);
  return {bytes.begin(), bytes.end()};
}

void append_all(WalWriter& writer, std::uint64_t count) {
  for (std::uint64_t i = writer.next_record_index(); i < count; ++i) {
    writer.append(payload(i));
  }
}

std::vector<fs::path> wal_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// --- WAL happy paths --------------------------------------------------------

TEST(Wal, RoundTripsRecordsInOrder) {
  const fs::path dir = fresh_dir("roundtrip");
  IngestReport report;
  {
    RecoveredWal empty = recover_wal(small_wal(dir), kFp, report);
    WalWriter writer{small_wal(dir), kFp, empty, &report};
    append_all(writer, 40);
    writer.seal();
  }
  IngestReport scan;
  const RecoveredWal recovered = recover_wal(small_wal(dir), kFp, scan);
  ASSERT_EQ(recovered.records.size(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(record_at(recovered, i), payload(i)) << "record " << i;
  }
  EXPECT_EQ(scan.records_recovered, 40u);
  EXPECT_EQ(scan.torn_tails, 0u);
  EXPECT_EQ(scan.corrupt_frames, 0u);
  EXPECT_EQ(report.records_appended, 40u);
  EXPECT_GT(report.bytes_appended, 0u);
}

TEST(Wal, RotatesSegmentsAtThreshold) {
  const fs::path dir = fresh_dir("rotate");
  IngestReport report;
  {
    RecoveredWal empty = recover_wal(small_wal(dir, 128), kFp, report);
    WalWriter writer{small_wal(dir, 128), kFp, empty, &report};
    append_all(writer, 60);
    writer.seal();
  }
  EXPECT_GT(report.segments_sealed, 3u);
  IngestReport scan;
  const RecoveredWal recovered = recover_wal(small_wal(dir, 128), kFp, scan);
  ASSERT_EQ(recovered.records.size(), 60u);
  EXPECT_EQ(recovered.next_segment_index, report.segments_sealed + 1);
  EXPECT_GT(scan.segments_scanned, 3u);
}

TEST(Wal, ResumesOpenTailAcrossWriters) {
  const fs::path dir = fresh_dir("tail");
  IngestReport report;
  {
    RecoveredWal empty = recover_wal(small_wal(dir), kFp, report);
    WalWriter writer{small_wal(dir), kFp, empty, &report};
    append_all(writer, 3);
    // No seal: the open tail must survive as-is.
  }
  IngestReport mid;
  const RecoveredWal tail = recover_wal(small_wal(dir), kFp, mid);
  ASSERT_EQ(tail.records.size(), 3u);
  EXPECT_TRUE(tail.open_tail);
  {
    WalWriter writer{small_wal(dir), kFp, tail, &report};
    EXPECT_EQ(writer.next_record_index(), 3u);
    append_all(writer, 7);
  }
  IngestReport scan;
  const RecoveredWal all = recover_wal(small_wal(dir), kFp, scan);
  ASSERT_EQ(all.records.size(), 7u);
  for (std::uint64_t i = 0; i < 7; ++i) {
    EXPECT_EQ(record_at(all, i), payload(i)) << "record " << i;
  }
}

TEST(Wal, UnsealedFramesSurviveAProcessKill) {
  // Appends are not synced until their segment is sealed, but a killed
  // process leaves its writes in the page cache: a writer that dies
  // without ever sealing must still recover every frame it appended.
  const fs::path dir = fresh_dir("unsealed");
  IngestReport report;
  {
    RecoveredWal empty = recover_wal(small_wal(dir), kFp, report);
    WalWriter writer{small_wal(dir), kFp, empty, &report};
    append_all(writer, 50);
  }
  EXPECT_EQ(report.segments_sealed, 0u);
  const std::vector<fs::path> files = wal_files(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.front().extension(), ".open");

  IngestReport scan;
  const RecoveredWal recovered = recover_wal(small_wal(dir), kFp, scan);
  ASSERT_EQ(recovered.records.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(record_at(recovered, i), payload(i)) << "record " << i;
  }
  EXPECT_TRUE(recovered.open_tail);
  EXPECT_EQ(scan.torn_tails, 0u);
  EXPECT_EQ(scan.corrupt_frames, 0u);
  EXPECT_EQ(scan.bytes_dropped, 0u);
}

// --- WAL torture corpus -----------------------------------------------------

/// Builds a multi-segment WAL (several sealed segments plus an open
/// tail) and returns the number of records in it. 13 records at a
/// 160-byte rotation threshold: record 11 lands exactly on a seal
/// boundary, so record 12 is what guarantees an open tail exists.
std::uint64_t build_torture_wal(const fs::path& dir) {
  IngestReport report;
  RecoveredWal empty = recover_wal(small_wal(dir, 160), kFp, report);
  WalWriter writer{small_wal(dir, 160), kFp, empty, &report};
  append_all(writer, 13);
  return 13;
}

TEST(Wal, EveryTruncationOfTheTailRecoversACleanPrefix) {
  // Sweep every possible torn-tail length of the open segment: at each
  // byte offset the reader must salvage exactly the fully-durable
  // frames, never throw, and never fabricate a record.
  const fs::path proto_dir = fresh_dir("trunc-proto");
  const std::uint64_t total = build_torture_wal(proto_dir);
  const std::vector<fs::path> files = wal_files(proto_dir);
  const fs::path tail = files.back();
  ASSERT_EQ(tail.extension(), ".open");
  const auto tail_size = static_cast<std::uint64_t>(fs::file_size(tail));

  std::uint64_t last_count = 0;
  for (std::uint64_t cut = 0; cut <= tail_size; ++cut) {
    const fs::path dir = fresh_dir("trunc-case");
    for (const fs::path& f : files) fs::copy_file(f, dir / f.filename());
    fs::resize_file(dir / tail.filename(), cut);

    IngestReport scan;
    const RecoveredWal recovered = recover_wal(small_wal(dir, 160), kFp, scan);
    ASSERT_LE(recovered.records.size(), total) << "cut at " << cut;
    for (std::size_t i = 0; i < recovered.records.size(); ++i) {
      ASSERT_EQ(record_at(recovered, i), payload(i))
          << "cut at " << cut << ", record " << i;
    }
    // Longer prefixes of the file can only yield >= as many records.
    ASSERT_GE(recovered.records.size(), last_count) << "cut at " << cut;
    last_count = recovered.records.size();
    // Recovery truncated the tail in place: a second scan is clean and
    // a writer can continue from it.
    IngestReport rescan;
    const RecoveredWal again = recover_wal(small_wal(dir, 160), kFp, rescan);
    ASSERT_EQ(again.records.size(), recovered.records.size())
        << "cut at " << cut;
    ASSERT_EQ(rescan.torn_tails + rescan.corrupt_frames, 0u)
        << "cut at " << cut;
  }
  EXPECT_EQ(last_count, total);
}

TEST(Wal, EveryByteCorruptionKeepsAValidatedPrefix) {
  // Flip one bit in every byte of every file: recovery must never
  // throw, and every record it does return must be byte-exact — damage
  // may shorten the salvage, never falsify it.
  const fs::path proto_dir = fresh_dir("flip-proto");
  build_torture_wal(proto_dir);
  const std::vector<fs::path> files = wal_files(proto_dir);

  for (const fs::path& victim : files) {
    const auto size = static_cast<std::uint64_t>(fs::file_size(victim));
    for (std::uint64_t at = 0; at < size; ++at) {
      const fs::path dir = fresh_dir("flip-case");
      for (const fs::path& f : files) fs::copy_file(f, dir / f.filename());
      {
        std::fstream fio{dir / victim.filename(),
                         std::ios::in | std::ios::out | std::ios::binary};
        fio.seekg(static_cast<std::streamoff>(at));
        char byte = 0;
        fio.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x20);
        fio.seekp(static_cast<std::streamoff>(at));
        fio.write(&byte, 1);
      }
      IngestReport scan;
      const RecoveredWal recovered =
          recover_wal(small_wal(dir, 160), kFp, scan);
      for (std::size_t i = 0; i < recovered.records.size(); ++i) {
        ASSERT_EQ(record_at(recovered, i), payload(i))
            << victim.filename() << " flipped at " << at << ", record " << i;
      }
    }
  }
}

TEST(Wal, DuplicateFramesAreSkippedOnce) {
  const fs::path dir = fresh_dir("dup");
  // Hand-build a segment whose middle frame is duplicated — the shape a
  // retransmitting sensor would produce.
  std::vector<std::uint8_t> file = encode_segment_header(kFp, 1, 0);
  const auto add = [&](std::uint64_t index) {
    const std::vector<std::uint8_t> frame = encode_frame(index, payload(index));
    file.insert(file.end(), frame.begin(), frame.end());
  };
  add(0);
  add(1);
  add(1);  // duplicate
  add(2);
  std::ofstream{dir / segment_filename(1, /*open=*/true), std::ios::binary}
      .write(reinterpret_cast<const char*>(file.data()),
             static_cast<std::streamsize>(file.size()));

  IngestReport scan;
  const RecoveredWal recovered = recover_wal(small_wal(dir), kFp, scan);
  ASSERT_EQ(recovered.records.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(record_at(recovered, i), payload(i));
  }
  EXPECT_EQ(scan.duplicate_frames, 1u);
  EXPECT_TRUE(recovered.open_tail);
}

/// Writes `bytes` as the file `path`, replacing it.
void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream{path, std::ios::binary | std::ios::trunc}.write(
      reinterpret_cast<const char*>(bytes.data()),
      static_cast<std::streamsize>(bytes.size()));
}

TEST(Wal, HostileFrameLengthIsATornTailAndNeverAllocated) {
  // A frame header whose CRC is valid but which declares a payload far
  // larger than the file: the shape of a write that died after its
  // header, or of a forged header. It is a torn tail, truncated back to
  // the frame before it, and nothing of the declared size is allocated.
  constexpr std::uint32_t kDeclared = 256u << 20;
  const fs::path dir = fresh_dir("hostile-length");
  std::vector<std::uint8_t> file = encode_segment_header(kFp, 1, 0);
  const std::vector<std::uint8_t> first = encode_frame(0, payload(3));
  file.insert(file.end(), first.begin(), first.end());
  const std::size_t clean = file.size();
  std::vector<std::uint8_t> hostile = encode_frame(1, payload(1));
  hostile.resize(kWalFrameHeaderBytes);
  hostile[4] = static_cast<std::uint8_t>(kDeclared);
  hostile[5] = static_cast<std::uint8_t>(kDeclared >> 8);
  hostile[6] = static_cast<std::uint8_t>(kDeclared >> 16);
  hostile[7] = static_cast<std::uint8_t>(kDeclared >> 24);
  const std::uint32_t header_crc =
      snapshot::crc32(std::span<const std::uint8_t>{hostile}.first(20));
  for (int b = 0; b < 4; ++b) {
    hostile[20 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(header_crc >> (8 * b));
  }
  file.insert(file.end(), hostile.begin(), hostile.end());
  file.resize(file.size() + 100, 0xab);  // a little of the "payload"
  const fs::path segment = dir / segment_filename(1, /*open=*/true);
  write_bytes(segment, file);

  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  IngestReport scan;
  const RecoveredWal recovered = recover_wal(small_wal(dir), kFp, scan);
  ASSERT_EQ(recovered.records.size(), 1u);
  EXPECT_EQ(record_at(recovered, 0), payload(3));
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);

  EXPECT_EQ(scan.torn_tails, 1u);
  EXPECT_EQ(scan.corrupt_frames, 0u);
  EXPECT_EQ(fs::file_size(segment), clean);
  // ru_maxrss is in KiB: had the declared 256 MiB been allocated (and
  // zero-filled), the peak would have grown by all of it.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 64 * 1024);
}

TEST(Wal, BytesChangedAfterRecoveryThrowOnRead) {
  // Recovery validated every frame, but the reader goes back to disk:
  // a payload byte flipped in between must throw IoError when its record
  // is read, never come back as a record.
  const fs::path dir = fresh_dir("flip-after-recovery");
  {
    IngestReport report;
    RecoveredWal empty = recover_wal(small_wal(dir, 128), kFp, report);
    WalWriter writer{small_wal(dir, 128), kFp, empty, &report};
    append_all(writer, 30);
    writer.seal();
  }
  IngestReport scan;
  const RecoveredWal recovered = recover_wal(small_wal(dir, 128), kFp, scan);
  ASSERT_EQ(recovered.records.size(), 30u);

  // Record 2 is the first non-empty payload of segment 1 (sealed): flip
  // its first byte.
  const fs::path sealed = dir / segment_filename(1, /*open=*/false);
  ASSERT_TRUE(fs::exists(sealed));
  std::uint64_t at = kWalSegmentHeaderBytes;
  for (std::uint64_t i = 0; i < 2; ++i) {
    at += kWalFrameHeaderBytes + payload(i).size();
  }
  ASSERT_FALSE(payload(2).empty());
  {
    std::fstream fio{sealed, std::ios::in | std::ios::out | std::ios::binary};
    fio.seekg(static_cast<std::streamoff>(at + kWalFrameHeaderBytes));
    char byte = 0;
    fio.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    fio.seekp(static_cast<std::streamoff>(at + kWalFrameHeaderBytes));
    fio.write(&byte, 1);
  }

  std::vector<std::vector<std::uint8_t>> read;
  EXPECT_THROW(
      {
        for (const std::span<const std::uint8_t> record : recovered.records) {
          read.emplace_back(record.begin(), record.end());
        }
      },
      IoError);
  ASSERT_EQ(read.size(), 2u);
  for (std::uint64_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read[i], payload(i)) << "record " << i;
  }
  // Records past the damage are still served, each checked on its own.
  EXPECT_EQ(record_at(recovered, 29), payload(29));
}

TEST(Wal, ReaderFollowsTheOpenTailWhenTheWriterSealsIt) {
  // The recovered open tail is indexed under its ".open" name; a writer
  // that keeps appending seals (renames) it. Reading the recovered
  // records afterwards must still work, from the sealed file.
  const fs::path dir = fresh_dir("reader-rotation");
  {
    IngestReport report;
    RecoveredWal empty = recover_wal(small_wal(dir), kFp, report);
    WalWriter writer{small_wal(dir), kFp, empty, &report};
    append_all(writer, 10);
    // No seal: the ten records stay in the open tail.
  }
  IngestReport scan;
  const RecoveredWal tail = recover_wal(small_wal(dir, 128), kFp, scan);
  ASSERT_EQ(tail.records.size(), 10u);
  ASSERT_TRUE(tail.open_tail);
  {
    WalWriter writer{small_wal(dir, 128), kFp, tail, nullptr};
    append_all(writer, 40);
    writer.seal();
  }
  EXPECT_FALSE(fs::exists(dir / segment_filename(1, /*open=*/true)));
  std::uint64_t i = 0;
  for (const std::span<const std::uint8_t> record : tail.records) {
    EXPECT_EQ(std::vector<std::uint8_t>(record.begin(), record.end()),
              payload(i))
        << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, 10u);
  IngestReport rescan;
  const RecoveredWal all = recover_wal(small_wal(dir, 128), kFp, rescan);
  EXPECT_EQ(all.records.size(), 40u);
  EXPECT_EQ(rescan.duplicate_frames, 0u);
}

TEST(Wal, ForeignFingerprintIsQuarantinedWholesale) {
  const fs::path dir = fresh_dir("stale");
  build_torture_wal(dir);
  IngestReport scan;
  const RecoveredWal recovered =
      recover_wal(small_wal(dir, 160), kFp ^ 1, scan);
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_EQ(scan.stale_segments, scan.segments_scanned);
  EXPECT_GE(scan.quarantined_files, 2u);
  // The foreign stream was moved aside, not deleted, and the directory
  // is now clean for the new configuration.
  std::size_t quarantined = 0;
  for (const fs::path& f : wal_files(dir)) {
    if (f.string().find(".quarantined") != std::string::npos) ++quarantined;
  }
  EXPECT_EQ(quarantined, scan.quarantined_files);
  IngestReport fresh;
  EXPECT_TRUE(recover_wal(small_wal(dir, 160), kFp ^ 1, fresh)
                  .records.empty());
  EXPECT_EQ(fresh.stale_segments, 0u);
}

TEST(Wal, KillDuringRotationResumesWithoutLossOrDuplication) {
  const fs::path dir = fresh_dir("rotate-kill");
  WalOptions options = small_wal(dir, 128);
  options.fail_after_seal = 2;  // die between the 2nd seal and the next open
  IngestReport report;
  std::uint64_t written = 0;
  try {
    RecoveredWal empty = recover_wal(options, kFp, report);
    WalWriter writer{options, kFp, empty, &report};
    for (std::uint64_t i = 0; i < 60; ++i) {
      writer.append(payload(i));
      written = i + 1;
    }
    FAIL() << "fail_after_seal never fired";
  } catch (const snapshot::CheckpointInterrupted&) {
  }
  ASSERT_GT(written, 0u);
  // Resume: recovery sees only sealed segments (no open tail), the new
  // writer starts a fresh segment past them, and nothing is lost. The
  // record whose append triggered the fatal rotation was durable before
  // the simulated crash, hence the +1 tolerance.
  IngestReport resume;
  WalOptions clean = small_wal(dir, 128);
  RecoveredWal recovered = recover_wal(clean, kFp, resume);
  EXPECT_FALSE(recovered.open_tail);
  EXPECT_GE(recovered.records.size(), written);
  EXPECT_LE(recovered.records.size(), written + 1);
  {
    WalWriter writer{clean, kFp, recovered, &resume};
    append_all(writer, 60);
    writer.seal();
  }
  IngestReport scan;
  const RecoveredWal all = recover_wal(clean, kFp, scan);
  ASSERT_EQ(all.records.size(), 60u);
  for (std::uint64_t i = 0; i < 60; ++i) {
    ASSERT_EQ(record_at(all, i), payload(i)) << "record " << i;
  }
  EXPECT_EQ(scan.duplicate_frames, 0u);
}

TEST(Wal, OptionsValidate) {
  EXPECT_THROW(WalOptions{}.validate(), ConfigError);
  WalOptions zero_segment;
  zero_segment.directory = "somewhere";
  zero_segment.segment_bytes = 0;
  EXPECT_THROW(zero_segment.validate(), ConfigError);
}

// --- Delivery retry/backoff -------------------------------------------------

TEST(Delivery, BackoffIsDeterministicJitteredAndBounded) {
  RetryPolicy policy;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    std::int64_t step = policy.base_backoff_seconds;
    for (int a = 1; a < attempt; ++a) {
      step = std::min(step * 2, policy.max_backoff_seconds);
    }
    for (std::uint64_t key : {0ull, 1ull, 77ull, 0xffff'ffff'ffffull}) {
      const std::int64_t delay = backoff_delay(policy, key, attempt);
      EXPECT_EQ(delay, backoff_delay(policy, key, attempt));  // pure
      EXPECT_GE(delay, std::max<std::int64_t>(1, (step * 3) / 4));
      EXPECT_LE(delay, step + (step + 3) / 4 + 1);
    }
  }
  // Different keys actually spread (jitter does something).
  std::int64_t lo = backoff_delay(policy, 0, 4);
  std::int64_t hi = lo;
  for (std::uint64_t key = 1; key < 64; ++key) {
    const std::int64_t delay = backoff_delay(policy, key, 4);
    lo = std::min(lo, delay);
    hi = std::max(hi, delay);
  }
  EXPECT_LT(lo, hi);
}

TEST(Delivery, SucceedsFirstTryWithoutFaults) {
  fault::FaultInjector injector{fault::FaultPlan{}};
  const DeliveryOutcome outcome =
      deliver_record(RetryPolicy{}, 42, SimTime{1000}, injector);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.backoff_seconds, 0);
  EXPECT_FALSE(outcome.exhausted);
  EXPECT_EQ(outcome.completed.seconds, 1000);
  const fault::FaultReport report = injector.report();
  EXPECT_EQ(report.delivery_checks, 1u);
  EXPECT_EQ(report.delivery_failures, 0u);
}

TEST(Delivery, ExhaustsRetriesUnderTotalFailureButNeverDrops) {
  fault::FaultPlan plan;
  plan.ingest_failure_probability = 1.0;
  fault::FaultInjector injector{plan};
  RetryPolicy policy;
  policy.max_attempts = 3;
  const DeliveryOutcome outcome =
      deliver_record(policy, 7, SimTime{0}, injector);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_TRUE(outcome.exhausted);
  EXPECT_GT(outcome.backoff_seconds, 0);
  const fault::FaultReport report = injector.report();
  EXPECT_EQ(report.delivery_checks, 3u);
  EXPECT_EQ(report.delivery_failures, 3u);
  EXPECT_EQ(report.delivery_retries, 2u);
  EXPECT_EQ(report.delivery_retry_exhausted, 1u);
  EXPECT_EQ(report.delivery_backoff_seconds, outcome.backoff_seconds);
}

TEST(Delivery, TimeoutStopsRetryingEarly) {
  fault::FaultPlan plan;
  plan.ingest_failure_probability = 1.0;
  fault::FaultInjector injector{plan};
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.timeout_seconds = 1;  // no retry wait can ever fit
  const DeliveryOutcome outcome =
      deliver_record(policy, 7, SimTime{0}, injector);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_TRUE(outcome.exhausted);
  EXPECT_EQ(outcome.backoff_seconds, 0);
  EXPECT_EQ(injector.report().delivery_retries, 0u);
}

TEST(Delivery, PolicyValidates) {
  RetryPolicy bad;
  bad.max_attempts = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = RetryPolicy{};
  bad.base_backoff_seconds = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = RetryPolicy{};
  bad.timeout_seconds = -1;
  EXPECT_THROW(bad.validate(), ConfigError);
}

// --- Report blob ------------------------------------------------------------

TEST(Report, StreamTotalsRoundTripAndRejectTampering) {
  IngestReport report;
  report.records_appended = 123;
  report.bytes_appended = 45678;
  report.segments_sealed = 9;
  report.torn_tails = 99;  // not part of the blob
  const std::vector<std::uint8_t> blob = encode_stream_totals(report);

  IngestReport restored;
  decode_stream_totals(blob, restored);
  EXPECT_EQ(restored.records_appended, 123u);
  EXPECT_EQ(restored.bytes_appended, 45678u);
  EXPECT_EQ(restored.segments_sealed, 9u);
  EXPECT_EQ(restored.torn_tails, 0u);

  std::vector<std::uint8_t> short_blob = blob;
  short_blob.pop_back();
  EXPECT_THROW(decode_stream_totals(short_blob, restored), ParseError);
  std::vector<std::uint8_t> long_blob = blob;
  long_blob.push_back(0);
  EXPECT_THROW(decode_stream_totals(long_blob, restored), ParseError);
  std::vector<std::uint8_t> wrong_version = blob;
  wrong_version[0] ^= 0xff;
  EXPECT_THROW(decode_stream_totals(wrong_version, restored), ParseError);
}

}  // namespace
}  // namespace repro::ingest
