#include "ingest/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "snapshot/checkpoint.hpp"
#include "snapshot/crc32.hpp"
#include "snapshot/durable_file.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"

namespace repro::ingest {

namespace {

namespace fs = std::filesystem;

using snapshot::fsync_dir;
using snapshot::fsync_file;
using snapshot::read_whole_file;
using snapshot::throw_io;
using snapshot::unique_quarantine_path;
using snapshot::write_fully;

/// Error-message prefix of every durable-file failure in this layer.
constexpr std::string_view kOwner = "wal";

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::optional<std::vector<std::uint8_t>> bytes = read_whole_file(path);
  if (!bytes.has_value()) throw IoError("wal: cannot read " + path);
  return std::move(*bytes);
}

// Raw little-endian field reads; bounds are checked by the callers
// before slicing, never by these.
std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t off) {
  return static_cast<std::uint32_t>(bytes[off]) |
         static_cast<std::uint32_t>(bytes[off + 1]) << 8 |
         static_cast<std::uint32_t>(bytes[off + 2]) << 16 |
         static_cast<std::uint32_t>(bytes[off + 3]) << 24;
}

std::uint64_t get_u64(std::span<const std::uint8_t> bytes, std::size_t off) {
  return static_cast<std::uint64_t>(get_u32(bytes, off)) |
         static_cast<std::uint64_t>(get_u32(bytes, off + 4)) << 32;
}

bool parse_segment_name(const std::string& name, std::uint64_t& index,
                        bool& open) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSealed = ".seg";
  constexpr std::string_view kOpen = ".seg.open";
  if (!name.starts_with(kPrefix)) return false;
  std::string_view digits{name};
  digits.remove_prefix(kPrefix.size());
  if (digits.ends_with(kOpen)) {
    open = true;
    digits.remove_suffix(kOpen.size());
  } else if (digits.ends_with(kSealed)) {
    open = false;
    digits.remove_suffix(kSealed.size());
  } else {
    return false;
  }
  if (digits.empty() || digits.size() > 19) return false;
  index = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    index = index * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

/// What a scan of one segment file found. `records` is the run of
/// frames continuing the expected record sequence; `valid_prefix` is
/// how many leading bytes of the file were structurally sound (header
/// plus every frame processed before damage, including skipped
/// duplicates, which stay on disk harmlessly).
struct SegmentScan {
  std::vector<std::vector<std::uint8_t>> records;
  std::uint64_t duplicates = 0;
  std::size_t valid_prefix = 0;
  bool header_ok = false;
  bool stale = false;  // foreign fingerprint
  bool ahead = false;  // first record index past the contiguous prefix
  bool torn = false;   // file ends mid-write
  bool corrupt = false;  // checksum/structure damage mid-file
};

SegmentScan scan_segment(std::span<const std::uint8_t> bytes,
                         std::uint64_t fingerprint,
                         std::uint64_t filename_index,
                         std::uint64_t expected_record) {
  SegmentScan scan;
  if (bytes.size() < kWalSegmentHeaderBytes) {
    scan.torn = true;
    return scan;
  }
  if (get_u32(bytes, 32) != snapshot::crc32(bytes.first(32)) ||
      get_u32(bytes, 0) != kWalSegmentMagic ||
      get_u32(bytes, 4) != kWalVersion ||
      get_u64(bytes, 16) != filename_index) {
    scan.corrupt = true;
    return scan;
  }
  if (get_u64(bytes, 8) != fingerprint) {
    scan.stale = true;
    return scan;
  }
  scan.header_ok = true;
  if (get_u64(bytes, 24) > expected_record) {
    // Frames before this segment's first record are missing (an earlier
    // segment was lost or quarantined); nothing here can extend the
    // contiguous prefix.
    scan.ahead = true;
    return scan;
  }

  std::size_t off = kWalSegmentHeaderBytes;
  std::uint64_t next = expected_record;
  scan.valid_prefix = off;
  while (off < bytes.size()) {
    const std::size_t remaining = bytes.size() - off;
    if (remaining < kWalFrameHeaderBytes) {
      scan.torn = true;
      break;
    }
    const std::span<const std::uint8_t> header =
        bytes.subspan(off, kWalFrameHeaderBytes);
    if (get_u32(header, 20) != snapshot::crc32(header.first(20)) ||
        get_u32(header, 0) != kWalFrameMagic) {
      scan.corrupt = true;
      break;
    }
    const std::size_t payload_length = get_u32(header, 4);
    const std::uint64_t record_index = get_u64(header, 8);
    if (remaining - kWalFrameHeaderBytes < payload_length) {
      // Header intact, payload cut off: the write died mid-frame.
      scan.torn = true;
      break;
    }
    const std::span<const std::uint8_t> payload =
        bytes.subspan(off + kWalFrameHeaderBytes, payload_length);
    if (get_u32(header, 16) != snapshot::crc32(payload)) {
      scan.corrupt = true;
      break;
    }
    if (record_index > next) {
      // A gap inside one segment means frames vanished mid-file.
      scan.corrupt = true;
      break;
    }
    if (record_index < next) {
      ++scan.duplicates;
    } else {
      scan.records.emplace_back(payload.begin(), payload.end());
      ++next;
    }
    off += kWalFrameHeaderBytes + payload_length;
    scan.valid_prefix = off;
  }
  return scan;
}

}  // namespace

void WalOptions::validate() const {
  if (directory.empty()) {
    throw ConfigError("wal: directory must not be empty");
  }
  if (segment_bytes == 0) {
    throw ConfigError("wal: segment_bytes must be positive");
  }
}

std::vector<std::uint8_t> encode_segment_header(std::uint64_t fingerprint,
                                                std::uint64_t segment_index,
                                                std::uint64_t first_record) {
  ByteWriter writer;
  writer.u32(kWalSegmentMagic);
  writer.u32(kWalVersion);
  writer.u64(fingerprint);
  writer.u64(segment_index);
  writer.u64(first_record);
  writer.u32(snapshot::crc32(writer.data()));
  return writer.take();
}

std::vector<std::uint8_t> encode_frame(std::uint64_t record_index,
                                       std::span<const std::uint8_t> payload) {
  if (payload.size() > UINT32_MAX) {
    throw ConfigError("wal: frame payload too large");
  }
  ByteWriter writer;
  writer.u32(kWalFrameMagic);
  writer.u32(static_cast<std::uint32_t>(payload.size()));
  writer.u64(record_index);
  writer.u32(snapshot::crc32(payload));
  writer.u32(snapshot::crc32(writer.data()));
  writer.bytes(payload);
  return writer.take();
}

std::string segment_filename(std::uint64_t segment_index, bool open) {
  std::string digits = std::to_string(segment_index);
  if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
  std::string name = "wal-" + digits + ".seg";
  if (open) name += ".open";
  return name;
}

RecoveredWal recover_wal(const WalOptions& options, std::uint64_t fingerprint,
                         IngestReport& report) {
  options.validate();
  fs::create_directories(options.directory);

  struct Entry {
    std::uint64_t index = 0;
    bool open = false;
    std::string path;
  };
  std::vector<Entry> entries;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options.directory)) {
    if (!entry.is_regular_file()) continue;
    Entry parsed;
    if (!parse_segment_name(entry.path().filename().string(), parsed.index,
                            parsed.open)) {
      continue;
    }
    parsed.path = entry.path().string();
    entries.push_back(std::move(parsed));
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.index != b.index) return a.index < b.index;
    return !a.open && b.open;  // a sealed twin outranks its open leftover
  });

  const auto quarantine_whole = [&report](const std::string& path) {
    std::error_code ec;
    std::uintmax_t size = fs::file_size(path, ec);
    if (ec) size = 0;
    // Best-effort evidence move, not a durability publish: recovery
    // correctness never depends on the quarantined file surviving a
    // crash — losing it just loses debug evidence, and the fallback is
    // deletion anyway.
    // repro-lint: allow(RL010) quarantine rename is not a durability publish
    fs::rename(path, unique_quarantine_path(path), ec);
    if (ec) fs::remove(path, ec);  // last resort: never rescan it
    ++report.quarantined_files;
    report.bytes_dropped += size;
  };

  RecoveredWal result;
  std::uint64_t expected = 0;
  std::uint64_t max_index = 0;
  bool seen_open = false;
  for (const Entry& entry : entries) {
    max_index = std::max(max_index, entry.index);
    ++report.segments_scanned;
    if (seen_open) {
      // Nothing may follow the open tail; a straggler here is a foreign
      // or duplicated file.
      quarantine_whole(entry.path);
      continue;
    }
    if (entry.open) seen_open = true;

    const std::vector<std::uint8_t> bytes = read_file(entry.path);
    SegmentScan scan = scan_segment(bytes, fingerprint, entry.index, expected);
    report.duplicate_frames += scan.duplicates;
    if (scan.stale) {
      ++report.stale_segments;
      quarantine_whole(entry.path);
      continue;
    }
    if (!scan.header_ok) {
      if (scan.torn) {
        ++report.torn_tails;
      } else {
        ++report.corrupt_frames;
      }
      quarantine_whole(entry.path);
      continue;
    }
    if (scan.ahead) {
      quarantine_whole(entry.path);
      continue;
    }

    expected += scan.records.size();
    report.records_recovered += scan.records.size();
    for (std::vector<std::uint8_t>& record : scan.records) {
      result.records.push_back(std::move(record));
    }
    if (scan.torn || scan.corrupt) {
      report.bytes_dropped += bytes.size() - scan.valid_prefix;
      if (scan.torn) ++report.torn_tails;
      if (scan.corrupt) {
        ++report.corrupt_frames;
        // Keep the damaged original as evidence, then cut the live file
        // back to its clean prefix so the stream continues from it.
        std::error_code ec;
        fs::copy_file(entry.path,
                      unique_quarantine_path(entry.path), ec);
        if (!ec) ++report.quarantined_files;
      }
      std::error_code ec;
      fs::resize_file(entry.path, scan.valid_prefix, ec);
      if (ec) throw IoError("wal: cannot truncate " + entry.path);
    }
    if (entry.open) {
      result.open_tail = true;
      result.open_tail_index = entry.index;
    }
  }
  result.next_segment_index = std::max<std::uint64_t>(max_index + 1, 1);
  return result;
}

WalWriter::WalWriter(WalOptions options, std::uint64_t fingerprint,
                     const RecoveredWal& recovered, IngestReport* report)
    : options_(std::move(options)), fingerprint_(fingerprint), report_(report) {
  options_.validate();
  fs::create_directories(options_.directory);
  next_record_ = recovered.records.size();
  segment_index_ = recovered.next_segment_index;
  if (recovered.open_tail) {
    segment_index_ = recovered.open_tail_index;
    open_path_ = segment_path(/*open=*/true);
    fd_ = ::open(open_path_.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) throw_io(kOwner, "open", open_path_);
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(open_path_, ec);
    if (ec) throw IoError("wal: cannot stat " + open_path_);
    segment_bytes_written_ = size;
  }
}

std::string WalWriter::segment_path(bool open) const {
  return (fs::path{options_.directory} / segment_filename(segment_index_, open))
      .string();
}

WalWriter::~WalWriter() { close_fd(); }

void WalWriter::close_fd() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void WalWriter::open_segment() {
  open_path_ = segment_path(/*open=*/true);
  fd_ = ::open(open_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) throw_io(kOwner, "open", open_path_);
  const std::vector<std::uint8_t> header =
      encode_segment_header(fingerprint_, segment_index_, next_record_);
  write_fully(fd_, header, open_path_, kOwner);
  // The header is synced with the frames when the segment is sealed;
  // the new file's directory entry is made durable now.
  fsync_dir(options_.directory, kOwner);
  segment_bytes_written_ = header.size();
}

void WalWriter::append(std::span<const std::uint8_t> payload) {
  if (fd_ < 0) open_segment();
  const std::vector<std::uint8_t> frame = encode_frame(next_record_, payload);
  write_fully(fd_, frame, open_path_, kOwner);
  segment_bytes_written_ += frame.size();
  ++next_record_;
  if (report_ != nullptr) {
    ++report_->records_appended;
    report_->bytes_appended += frame.size();
  }
  if (segment_bytes_written_ >= options_.segment_bytes) seal();
}

void WalWriter::seal() {
  if (fd_ < 0 || segment_bytes_written_ <= kWalSegmentHeaderBytes) return;
  const std::string sealed_path = segment_path(/*open=*/false);
  fsync_file(fd_, open_path_, kOwner);
  close_fd();
  if (std::rename(open_path_.c_str(), sealed_path.c_str()) != 0) {
    throw_io(kOwner, "rename", open_path_);
  }
  fsync_dir(options_.directory, kOwner);
  segment_bytes_written_ = 0;
  ++segment_index_;
  ++seals_done_;
  if (report_ != nullptr) ++report_->segments_sealed;
  if (options_.fail_after_seal != 0 &&
      seals_done_ == options_.fail_after_seal) {
    throw snapshot::CheckpointInterrupted(
        "simulated crash after sealing wal segment " + sealed_path);
  }
}

}  // namespace repro::ingest
