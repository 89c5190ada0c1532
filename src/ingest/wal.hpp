// Crash-safe event write-ahead log.
//
// An append-only log of opaque record payloads, split into segment
// files. Every record travels in a CRC32-framed envelope and every
// segment opens with a checksummed header carrying the producing
// configuration's fingerprint, so the reader can tell torn tails,
// bit flips, duplicated frames and foreign streams apart — and recover
// a clean record prefix from any of them instead of failing.
//
// A WAL segment is read twice per process: recovery reads every frame
// to validate it but keeps only where each record sits (WalRecords),
// and replay reads the payloads back, one segment at a time through a
// bounded window, checking every CRC again (WalReader). Memory never
// holds the log.
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
#include <iterator>
#include <memory>
#include <optional>
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

class WalReader;
struct RecoveredWal;

/// Read-only handle on one segment file, read through a window: a read
/// is served from the window when it covers the range, else the window
/// is refilled from the range's start, in chunks of at least 256 KiB so
/// sequential frames cost few syscalls. The window grows only to the
/// largest range asked for, and asking past the end of the file is an
/// IoError — so a caller that bounds its ranges by size() never
/// allocates what a damaged header declares.
class WalSegmentFile {
 public:
  /// Opens `path`; nullopt when it does not exist. Throws IoError on any
  /// other failure.
  [[nodiscard]] static std::optional<WalSegmentFile> open(std::string path);
  ~WalSegmentFile();
  WalSegmentFile(WalSegmentFile&& other) noexcept;
  WalSegmentFile& operator=(WalSegmentFile&& other) noexcept;
  WalSegmentFile(const WalSegmentFile&) = delete;
  WalSegmentFile& operator=(const WalSegmentFile&) = delete;

  /// File size when it was opened.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// The `n` bytes at `offset`, valid until the next read.
  [[nodiscard]] std::span<const std::uint8_t> read(std::uint64_t offset,
                                                   std::size_t n);

 private:
  WalSegmentFile(int fd, std::string path, std::uint64_t size) noexcept;

  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
  /// File bytes [window_offset_, window_offset_ + window_.size()).
  std::vector<std::uint8_t> window_;
  std::uint64_t window_offset_ = 0;
};

/// The recovered record prefix as an index into the segment files:
/// where each record's frame sits, never its payload. Iterating yields
/// every record in order as a span that stays valid until the next
/// step; the bytes are read back one segment at a time (see WalReader),
/// so iterating holds one read window of the old log, never all of it.
class WalRecords {
 public:
  class Iterator {
   public:
    /// Payload of the current record, CRC-checked again; throws IoError
    /// when its frame changed on disk since recovery.
    [[nodiscard]] std::span<const std::uint8_t> operator*() const;
    Iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    [[nodiscard]] bool operator==(std::default_sentinel_t) const noexcept;

   private:
    friend class WalRecords;
    explicit Iterator(const WalRecords& records);
    std::shared_ptr<WalReader> reader_;
    std::uint64_t index_ = 0;
  };

  /// Number of records in the prefix.
  [[nodiscard]] std::uint64_t size() const noexcept { return frames_.size(); }
  [[nodiscard]] bool empty() const noexcept { return frames_.empty(); }

  [[nodiscard]] Iterator begin() const { return Iterator{*this}; }
  [[nodiscard]] std::default_sentinel_t end() const noexcept { return {}; }

 private:
  friend class WalReader;
  friend RecoveredWal recover_wal(const WalOptions& options,
                                  std::uint64_t fingerprint,
                                  IngestReport& report);

  struct Segment {
    std::uint64_t index = 0;
    /// Still "wal-N.seg.open" at recovery; the writer may seal (rename)
    /// it later, and the reader follows the rename.
    bool open = false;
  };
  /// One record's frame: which segment, where the frame header starts,
  /// and how long its payload is.
  struct Frame {
    std::uint32_t segment = 0;  // position in segments_
    std::uint32_t length = 0;
    std::uint64_t offset = 0;
  };

  std::string directory_;
  std::vector<Segment> segments_;
  std::vector<Frame> frames_;
};

/// What recovery salvaged from a WAL directory: the index of a
/// contiguous record prefix (record i is records' i-th entry) plus where
/// the writer should continue.
struct RecoveredWal {
  WalRecords records;
  /// Length of the recovered prefix: the index the next append gets.
  std::uint64_t record_count = 0;
  /// Index the next created segment will use.
  std::uint64_t next_segment_index = 1;
  /// True when an undamaged-or-truncated ".open" tail segment survived
  /// and the writer can keep appending to it.
  bool open_tail = false;
  /// Index of the surviving open tail (meaningful when open_tail).
  std::uint64_t open_tail_index = 0;
};

/// Random-access reads of recovered records. One segment file is open
/// at a time (the writer may have sealed an open tail since recovery;
/// the reader follows the rename), read through a WalSegmentFile window,
/// so the buffer is bounded by the largest indexed frame. Every read
/// re-checks the frame's header and payload CRCs and its record index:
/// bytes that changed on disk since recovery throw IoError instead of
/// reaching the caller. No mmap: touched file pages of a mapping count
/// towards the process's resident set.
class WalReader {
 public:
  /// `records` must outlive the reader.
  explicit WalReader(const WalRecords& records) noexcept
      : records_(&records) {}

  [[nodiscard]] std::uint64_t size() const noexcept {
    return records_->size();
  }

  /// Payload of record `index` (< size()), valid until the next read.
  [[nodiscard]] std::span<const std::uint8_t> read(std::uint64_t index);

 private:
  const WalRecords* records_;
  std::optional<WalSegmentFile> file_;
  std::uint32_t segment_ = 0;  // which segment file_ holds
};

/// Scans every segment of `options.directory` in index order, checks
/// every frame, and returns the index of the longest clean record
/// prefix; no payload is kept. Stale segments (foreign fingerprint) and
/// damaged files are quarantined under unique names; torn tails are
/// truncated back to the last valid frame in place. A frame header that
/// declares more bytes than its file holds is a torn tail, and nothing
/// of that size is ever allocated. Never throws on damaged input — only
/// on I/O errors.
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
