#include "ingest/report.hpp"

#include "obs/metrics.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"

namespace repro::ingest {

namespace {
constexpr std::uint32_t kTotalsVersion = 1;
}  // namespace

std::vector<std::uint8_t> encode_stream_totals(const IngestReport& report) {
  ByteWriter writer;
  writer.u32(kTotalsVersion);
  writer.u64(report.records_appended);
  writer.u64(report.bytes_appended);
  writer.u64(report.segments_sealed);
  return writer.take();
}

void decode_stream_totals(const std::vector<std::uint8_t>& blob,
                          IngestReport& report) {
  ByteReader reader{blob};
  if (reader.u32() != kTotalsVersion) {
    throw ParseError("ingest: unsupported stream-totals blob version");
  }
  report.records_appended = reader.u64();
  report.bytes_appended = reader.u64();
  report.segments_sealed = reader.u64();
  if (reader.remaining() != 0) {
    throw ParseError("ingest: trailing bytes in stream-totals blob");
  }
}

void publish_ingest_metrics(obs::MetricsRegistry& metrics,
                            const IngestReport& report) {
  const auto set = [&](std::string_view name, std::uint64_t value) {
    metrics.counter(name).add(value);
  };
  set("ingest.wal.records_appended", report.records_appended);
  set("ingest.wal.bytes_appended", report.bytes_appended);
  set("ingest.wal.segments_sealed", report.segments_sealed);
  set("ingest.wal.segments_scanned", report.segments_scanned);
  set("ingest.wal.records_recovered", report.records_recovered);
  set("ingest.wal.torn_tails", report.torn_tails);
  set("ingest.wal.corrupt_frames", report.corrupt_frames);
  set("ingest.wal.duplicate_frames", report.duplicate_frames);
  set("ingest.wal.stale_segments", report.stale_segments);
  set("ingest.wal.quarantined", report.quarantined_files);
  set("ingest.wal.bytes_dropped", report.bytes_dropped);
  set("ingest.epochs.run", report.epochs_run);
  set("ingest.epochs.restored", report.epochs_restored);
}

}  // namespace repro::ingest
