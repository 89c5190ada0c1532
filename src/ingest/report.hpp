// Streaming-ingest accounting.
//
// One IngestReport accumulates everything the durable ingest path did:
// WAL appends and segment rotations, recovery salvage work (torn
// tails, corrupt frames, duplicates, quarantines) and the epoch loop's
// progress. The "stream totals" group is cumulative over the stream's
// whole logical history — it is persisted inside every epoch checkpoint
// and restored on resume — while the recovery and epoch counters
// describe the current process run. Every field is driven from the
// serial epoch driver, so the derived obs metrics are byte-identical at
// every pool width.
#pragma once

#include <cstdint>
#include <vector>

namespace repro::obs {
class MetricsRegistry;
}  // namespace repro::obs

namespace repro::ingest {

struct IngestReport {
  // --- Stream totals (cumulative; persisted in epoch checkpoints) ---
  std::uint64_t records_appended = 0;  // frames durably written, ever
  std::uint64_t bytes_appended = 0;    // frame bytes written, ever
  std::uint64_t segments_sealed = 0;   // rotations completed, ever

  // --- Recovery (this process run) ---
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_recovered = 0;
  std::uint64_t torn_tails = 0;       // frame cut off mid-write at EOF
  std::uint64_t corrupt_frames = 0;   // CRC/structure damage mid-file
  std::uint64_t duplicate_frames = 0; // valid frame, already-seen index
  std::uint64_t stale_segments = 0;   // fingerprint from another config
  std::uint64_t quarantined_files = 0;
  std::uint64_t bytes_dropped = 0;    // bytes cut when truncating damage

  // --- Epoch loop (this process run) ---
  std::uint64_t epochs_run = 0;       // epochs computed by this process
  std::uint64_t epochs_restored = 0;  // 1 when a checkpoint was resumed
  /// Epochs whose incremental clustering results were byte-compared
  /// against a full recompute and matched
  /// (StreamOptions::verify_incremental). Deliberately not published as
  /// a metric: it counts this process run's cross-check work, which a
  /// kill/resume run legitimately does less of.
  std::uint64_t epochs_verified = 0;
};

/// The cumulative "stream totals" group as an opaque checkpoint blob.
[[nodiscard]] std::vector<std::uint8_t> encode_stream_totals(
    const IngestReport& report);

/// Restores the stream totals of `blob` into `report` (other fields
/// untouched). Throws ParseError on a malformed blob.
void decode_stream_totals(const std::vector<std::uint8_t>& blob,
                          IngestReport& report);

/// Publishes every counter above under "ingest.*" on the deterministic
/// channel (the driver is serial, so all of them are width-stable).
void publish_ingest_metrics(obs::MetricsRegistry& metrics,
                            const IngestReport& report);

}  // namespace repro::ingest
