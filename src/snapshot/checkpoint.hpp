// Crash-safe epoch checkpoints.
//
// A CheckpointStore persists one cut per streaming epoch: the derived
// pipeline state after a WAL prefix was replayed, enriched and
// clustered. The event database is not part of a cut — resume rebuilds
// it by replaying the WAL prefix the cut covers. The container format
// is versioned and checksummed end to end (per-section CRC-32 plus a
// whole-file CRC trailer), writes are atomic (snapshot/durable_file),
// and every cut embeds a fingerprint of the producing ScenarioOptions
// so cuts of a *different* configuration are rejected as stale instead
// of silently reused. A load never fails the caller: corrupt, truncated
// or stale files are quarantined (renamed aside) and the epochs they
// covered are simply recomputed, so a run killed at any point —
// including mid-write — resumes to output byte-identical to an
// uninterrupted run.
//
// File layout (all little-endian, via util/byteio):
//   [magic u32][format version u32][fingerprint u64]
//   [section count u32]
//   per section: [name len u32][name][payload len u64][payload]
//                [payload crc32 u32]
//   [file crc32 u32]  — over everything before it
//   [end magic u32]
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/bview.hpp"
#include "cluster/epm.hpp"
#include "fault/injector.hpp"
#include "honeypot/database.hpp"
#include "honeypot/enrichment.hpp"
#include "snapshot/codec.hpp"

namespace repro::snapshot {

inline constexpr std::uint32_t kSnapshotMagic = 0x53'47'4e'53;  // "SNGS"
inline constexpr std::uint32_t kSnapshotEndMagic = 0x44'4e'45'53;  // "SEND"
// Version 2: FaultReport gained the four checked-decision counters.
// Version 3: FaultReport gained the five ingest-delivery counters and
// the epoch stage was added for the streaming ingest loop.
// Version 4: the epoch stage gained the incremental-clustering state
// sections (per-dimension EPM counting blobs + the MinHash signature
// store).
// Version 5: the behavioral stage and the epoch meta stamp the
// producing cluster backend, so a partition computed by one backend
// can never silently seed another.
// Version 6: epoch cuts no longer carry the event database; they keep
// a per-sample enrichment column and resume rebuilds the database by
// replaying the WAL prefix the cut covers.
// Version 7: the epoch cut is the only snapshot kind, so the header's
// stage byte is gone.
// Version 8: cuts keep results, not engine caches. The EPM counting
// blobs and the MinHash signature store are gone (resume rebuilds both
// from the replayed prefix); the meta carries the three EPM
// reclassification totals instead of the backend tag, and the backend
// is mixed into the fingerprint.
// Version 9: the meta carries the stream's event total, and the fault
// report is cumulative (generation's counters included), so a resume
// whose WAL holds every record the cut covers never regenerates the
// stream.
// Older files are quarantined as unreadable and their epochs
// recomputed — the normal graceful-degradation path, not an error.
inline constexpr std::uint32_t kSnapshotVersion = 9;

/// Snapshot file name for a streaming epoch cut, e.g. "epoch-0003.snap".
[[nodiscard]] std::string epoch_filename(std::uint64_t epoch);

/// One named payload inside a snapshot file.
struct Section {
  std::string name;
  std::vector<std::uint8_t> payload;
};

/// Serializes sections into the container format described above.
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    std::uint64_t fingerprint, const std::vector<Section>& sections);

/// Parsed container header + sections.
struct DecodedSnapshot {
  std::uint64_t fingerprint = 0;
  std::vector<Section> sections;
};

/// Validates magic, version, section structure and every
/// CRC. Throws ParseError on any deviation — a truncated file or a
/// single flipped bit never decodes.
[[nodiscard]] DecodedSnapshot decode_snapshot(
    std::span<const std::uint8_t> bytes);

/// Thrown by the test seams below to simulate the process dying.
class CheckpointInterrupted : public std::runtime_error {
 public:
  explicit CheckpointInterrupted(const std::string& what)
      : std::runtime_error(what) {}
};

struct CheckpointOptions {
  /// Directory the epoch cuts live in; empty disables checkpointing.
  /// Created on first use.
  std::string directory;
  /// Test seam: abandon the temp file halfway through writing the cut
  /// of epoch N and throw CheckpointInterrupted (0 = never). Simulates
  /// a crash mid-write; the partial ".tmp" must never be mistaken for a
  /// cut on resume.
  int short_write_epoch = 0;
};

/// The three E/P/M clustering results of one epoch.
struct EpmStage {
  cluster::EpmResult e;
  cluster::EpmResult p;
  cluster::EpmResult m;
};

/// Per-dimension instances_reclassified of the E, P and M engines.
using EpmReclassified = std::array<std::uint64_t, 3>;

/// One streaming epoch cut as loaded: the derived pipeline state after
/// the first `wal_records` WAL records were replayed and re-clustered.
/// The event database is not part of it — those records are already
/// durable in the WAL (or regenerated from the deterministic stream),
/// so resume replays them into an empty database and then applies the
/// per-sample enrichment column (CheckpointStore::apply_epoch).
/// `wal_records` — not the epoch index — is what resume keys on, so a
/// cut stays usable even if the run is restarted with a different
/// `--epochs` split.
///
/// The cut also carries what a resume would otherwise have to
/// regenerate the stream for: its event total and the cumulative fault
/// report, generation's counters included. A resume whose recovered WAL
/// holds the cut's whole prefix, and whose cut covers the whole stream,
/// therefore never runs the sensor simulation. A cut claiming more
/// records than its own total does not decode.
struct EpochStage {
  std::uint64_t epoch = 0;        // 0-based epoch index that was cut
  std::uint64_t wal_records = 0;  // records covered by this state
  std::uint64_t event_total = 0;  // records in the whole stream
  /// Samples the replayed prefix must produce, and their enrichment
  /// outputs in sample-id order.
  std::uint64_t sample_count = 0;
  std::vector<SampleEnrichment> samples;
  honeypot::EnrichmentStats enrichment;
  /// Every fault counter of the run up to this cut: generation's plus
  /// the delivery and enrichment activity of the covered records.
  fault::FaultReport fault_report;
  EpmStage epm;
  analysis::BehavioralView behavioral;
  /// Opaque ingest stream totals (ingest::encode_stream_totals).
  std::vector<std::uint8_t> ingest_blob;
  /// The E/P/M engines' cumulative instances_reclassified. History, so
  /// unlike the engines' counting state it cannot be recounted from
  /// the replayed prefix.
  EpmReclassified epm_reclassified{};
};

/// The write side of one epoch cut: borrowed views of the live epoch
/// loop state, serialised in place so writing a cut copies neither the
/// database nor the clustering results. Only the enrichment column of
/// `db` is written; see EpochStage for the loaded form.
struct EpochCut {
  std::uint64_t epoch = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t event_total = 0;
  const honeypot::EventDatabase& db;
  const honeypot::EnrichmentStats& enrichment;
  const fault::FaultReport& fault_report;
  const EpmStage& epm;
  const analysis::BehavioralView& behavioral;
  std::span<const std::uint8_t> ingest_blob;
  EpmReclassified epm_reclassified{};
};

class CheckpointStore {
 public:
  /// `fingerprint` identifies the producing configuration; snapshots
  /// carrying a different fingerprint are quarantined as stale.
  CheckpointStore(CheckpointOptions options, std::uint64_t fingerprint);

  [[nodiscard]] bool enabled() const noexcept {
    return !options_.directory.empty();
  }

  /// Durably writes one epoch cut to its own "epoch-NNNN.snap" file.
  void save_epoch(const EpochCut& cut);
  /// Newest valid epoch cut, scanning epoch files in descending index
  /// order; corrupt/stale files are quarantined and skipped. Loading
  /// does not count as a restore: the caller may still decline the cut.
  [[nodiscard]] std::optional<EpochStage> load_latest_epoch();
  /// Completes a loaded cut against `db`, the database rebuilt by
  /// replaying the cut's WAL prefix: the replay must have produced
  /// exactly the cut's samples (their count and every md5), then the
  /// enrichment column is applied, the database's cross-references are
  /// checked, and `prime` rebuilds the caller's derived state from the
  /// cut and the completed database. Only then is the cut counted as
  /// restored. On any mismatch, or a ParseError/ConfigError from
  /// `prime`, the cut file is quarantined and false is returned: the
  /// cut is never trusted, and the caller recomputes from record 0.
  [[nodiscard]] bool apply_epoch(
      const EpochStage& stage, honeypot::EventDatabase& db,
      const std::function<void(const honeypot::EventDatabase&)>& prime);
  /// Quarantines a loaded cut the caller found wrong on its own terms
  /// (its event total disagrees with the regenerated stream), so no
  /// later run loads it either.
  void decline_epoch(const EpochStage& stage);

  /// What the store did this run — lets callers (and tests) see whether
  /// a cut was restored, and whether files were thrown out.
  struct Activity {
    std::size_t saved = 0;          // cuts durably written
    std::size_t restored = 0;       // cuts applied by a resume
    std::size_t quarantined = 0;    // corrupt/truncated files set aside
    std::size_t stale = 0;          // of quarantined: fingerprint mismatch
    std::size_t bytes_written = 0;  // encoded snapshot bytes persisted
  };
  [[nodiscard]] const Activity& activity() const noexcept {
    return activity_;
  }

 private:
  void quarantine(const std::string& path, bool stale);

  CheckpointOptions options_;
  std::uint64_t fingerprint_ = 0;
  Activity activity_;
};

}  // namespace repro::snapshot
