// Crash-safe event write-ahead log.
//
// An append-only log of opaque record payloads, split into segment
// files. Every record travels in a CRC32-framed envelope and every
// segment opens with a checksummed header carrying the producing
// configuration's fingerprint, so the reader can tell torn tails,
// bit flips, duplicated frames and foreign streams apart — and recover
// a clean record prefix from any of them instead of failing.
//
// On-disk layout (all little-endian, CRCs from snapshot/crc32):
//
//   segment header:  [magic u32][version u32][fingerprint u64]
//                    [segment index u64][first record index u64]
//                    [header crc32 u32]
//   frame:           [magic u32][payload length u32][record index u64]
//                    [payload crc32 u32][header crc32 u32][payload...]
//
// The active segment is written as "wal-NNNNNN.seg.open"; sealing a
// segment is fsync + rename to "wal-NNNNNN.seg" + directory fsync, so
// rotation is atomic the same way snapshot writes are (the .open file
// plays the tmp role). A crash can only ever leave a torn tail on the
// newest segment, which recovery truncates back to the last valid
// frame; damage anywhere else is quarantined under a unique name and
// the scan keeps every record before the first corrupt frame.
//
// Durability contract: a record is durable once the epoch that holds it
// is cut. Appends are plain writes; seal() is the only point that syncs
// frames, and the epoch loop seals before it saves the epoch's cut, so
// a cut never covers an unsynced record. A process kill loses nothing
// (the page cache survives it); a power cut can lose the unsynced tail
// of the open segment, which recovery truncates like any torn tail and
// the regenerated stream re-appends.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ingest/report.hpp"

namespace repro::ingest {

inline constexpr std::uint32_t kWalSegmentMagic = 0x47'45'53'57;  // "WSEG"
inline constexpr std::uint32_t kWalFrameMagic = 0x4d'52'46'57;    // "WFRM"
inline constexpr std::uint32_t kWalVersion = 2;
inline constexpr std::size_t kWalSegmentHeaderBytes = 36;
inline constexpr std::size_t kWalFrameHeaderBytes = 24;

struct WalOptions {
  /// Directory the segment files live in; created on first use.
  std::string directory;
  /// Rotation threshold: the open segment is sealed once its size
  /// reaches this many bytes. Small values in tests force rotations.
  std::uint64_t segment_bytes = 1u << 20;
  /// Test seam: simulate a crash mid-rotation — the Nth seal of this
  /// writer's lifetime (1-based) renames the segment but dies before a
  /// new open segment exists (0 = never).
  std::uint64_t fail_after_seal = 0;

  /// Throws ConfigError on an empty directory or zero segment size.
  void validate() const;
};

/// Serialized segment header for `segment_index` whose first frame will
/// carry `first_record`.
[[nodiscard]] std::vector<std::uint8_t> encode_segment_header(
    std::uint64_t fingerprint, std::uint64_t segment_index,
    std::uint64_t first_record);

/// Serialized frame (header + payload) for record `record_index`.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    std::uint64_t record_index, std::span<const std::uint8_t> payload);

/// Segment file name, e.g. "wal-000003.seg" (+ ".open" when active).
[[nodiscard]] std::string segment_filename(std::uint64_t segment_index,
                                           bool open);

/// What recovery salvaged from a WAL directory: a contiguous record
/// prefix (records[i] is record index i) plus where the writer should
/// continue.
struct RecoveredWal {
  std::vector<std::vector<std::uint8_t>> records;
  /// Index the next created segment will use.
  std::uint64_t next_segment_index = 1;
  /// True when an undamaged-or-truncated ".open" tail segment survived
  /// and the writer can keep appending to it.
  bool open_tail = false;
  /// Index of the surviving open tail (meaningful when open_tail).
  std::uint64_t open_tail_index = 0;
};

/// Scans every segment of `options.directory` in index order and
/// returns the longest clean record prefix. Stale segments (foreign
/// fingerprint) and damaged files are quarantined under unique names;
/// torn tails are truncated back to the last valid frame in place.
/// Never throws on damaged input — only on I/O errors.
[[nodiscard]] RecoveredWal recover_wal(const WalOptions& options,
                                       std::uint64_t fingerprint,
                                       IngestReport& report);

/// Appender positioned after a recovery. Appends are sequential and
/// unsynced; rotation happens transparently once the open segment
/// crosses the size threshold, and seals it.
class WalWriter {
 public:
  WalWriter(WalOptions options, std::uint64_t fingerprint,
            const RecoveredWal& recovered, IngestReport* report);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends the next record (record indices continue from the
  /// recovered prefix). The frame is written, not synced: it becomes
  /// durable when its segment is sealed.
  void append(std::span<const std::uint8_t> payload);

  /// Seals the open segment (fsync + rename + directory fsync) so the
  /// next append starts a fresh one. The writer's only durability
  /// point. No-op when the open segment holds no frames yet.
  void seal();

  [[nodiscard]] std::uint64_t next_record_index() const noexcept {
    return next_record_;
  }

  /// Index of the currently open (or next-to-open) segment. Segments
  /// 1..segment_index()-1 are sealed on disk, which makes this the
  /// kill-invariant "rotations completed" total for the whole stream —
  /// a resumed writer starts past every segment the dead run sealed.
  [[nodiscard]] std::uint64_t segment_index() const noexcept {
    return segment_index_;
  }

 private:
  void open_segment();
  void close_fd() noexcept;
  /// Path of the current segment, open or sealed.
  [[nodiscard]] std::string segment_path(bool open) const;

  WalOptions options_;
  std::uint64_t fingerprint_ = 0;
  IngestReport* report_ = nullptr;
  int fd_ = -1;
  /// Path of the open segment while fd_ is open.
  std::string open_path_;
  std::uint64_t segment_index_ = 1;
  std::uint64_t segment_bytes_written_ = 0;
  std::uint64_t next_record_ = 0;
  std::uint64_t seals_done_ = 0;
};

}  // namespace repro::ingest
