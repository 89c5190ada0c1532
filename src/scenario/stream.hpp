// Streaming ingest: the paper pipeline as a durable epoch loop.
//
// build_streaming_dataset produces the same Dataset as the one-shot
// build_paper_dataset — byte-identical, at every pool width — but gets
// there the way a live deployment would: every attack event becomes a
// WAL record that is delivered (with deterministic retry/backoff under
// injected faults), buffered through a bounded backpressure queue, and
// appended to the crash-safe WAL in src/ingest. The stream is split
// into N epochs; each epoch replays its record delta into the
// event database, enriches the delta, advances the E/P/M/B clusterings
// incrementally (delta counting + flip-triggered reclassification for
// EPM, cached MinHash signatures for B, plus prior-partition seeding
// when the backend is single-linkage — byte-identical to a full
// recompute, which StreamOptions::verify_incremental cross-checks),
// seals the WAL segment that holds the delta (the epoch's one WAL
// sync: a record is durable once its epoch is cut) and cuts an epoch
// checkpoint. A run killed at any point — mid-epoch,
// mid-append, mid-segment-rotation, mid-checkpoint-write — resumes
// from the newest valid epoch cut plus the recovered WAL tail and
// finishes with byte-identical output, which is the contract pinned by
// tests/stream_test and the CI crash-loop job.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ingest/delivery.hpp"
#include "scenario/paper.hpp"

namespace repro::scenario {

struct StreamOptions {
  /// Number of epoch batches the event stream is cut into. Epoch
  /// boundaries are record counts (k * total / epochs), so a resumed
  /// checkpoint stays usable even under a different split.
  std::size_t epochs = 4;
  /// WAL segment directory (required).
  std::string wal_dir;
  /// WAL rotation threshold; tests shrink it to force rotations.
  std::uint64_t segment_bytes = 1u << 20;
  /// Sensor-to-collector retry/backoff policy.
  ingest::RetryPolicy retry;
  /// Cross-check mode: every computed epoch also runs the full batch
  /// clustering and byte-compares it against the incremental results,
  /// and every replayed content record has its carried digest
  /// re-derived from its bytes; the first divergence throws
  /// ConfigError. Costs both paths per epoch — a test/CI mode, not a
  /// production one. The incremental results are still the ones
  /// published and checkpointed.
  bool verify_incremental = false;
  /// Test seam, forwarded to WalOptions::fail_after_seal: simulated
  /// crash between sealing a segment and opening the next one.
  std::uint64_t fail_after_seal = 0;
  /// Crash seam: called after every WAL append with the number of
  /// records this process run has appended so far. The CLI uses it to
  /// SIGKILL itself at a seeded point; tests throw
  /// snapshot::CheckpointInterrupted from it.
  std::function<void(std::uint64_t appended_this_run)> after_append;
  /// Observation hook: called after an epoch's clustering results are
  /// complete and its checkpoint cut is durable, before the loop moves
  /// on; `epoch` is the 1-based count of durable epochs (the final call
  /// passes `epochs`). The serving layer builds a query snapshot here
  /// and hot-swaps it in; the hook must copy anything it keeps — the
  /// references die with the next epoch. Epochs skipped on resume
  /// (already covered by a restored cut) do not fire it.
  std::function<void(const honeypot::EventDatabase& db,
                     const snapshot::EpmStage& epm,
                     const analysis::BehavioralView& b, std::size_t epoch)>
      on_epoch;

  /// Throws ConfigError on zero epochs, an empty wal_dir, or an invalid
  /// retry policy.
  void validate() const;
};

/// Runs the streaming epoch loop. Epoch checkpoints are written through
/// `options.checkpoint` (disabled when the directory is empty — the run
/// then always starts from the recovered WAL alone). With `epochs = 1`
/// this is the durable one-shot build. Returns the same Dataset as
/// build_paper_dataset(options), plus populated `ingest` accounting.
[[nodiscard]] Dataset build_streaming_dataset(const ScenarioOptions& options,
                                              const StreamOptions& stream);

}  // namespace repro::scenario
