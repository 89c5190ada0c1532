// Tests for the durable streaming epoch loop — the headline guarantee:
// an N-epoch streaming build, killed and resumed at arbitrary points
// (mid-append, mid-rotation, mid-checkpoint, between epochs), with
// fault injection on, exports a landscape byte-identical to the
// one-shot batch build at every thread width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/backend.hpp"
#include "fault/plan.hpp"
#include "ingest/wal.hpp"
#include "io/csv_export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/paper.hpp"
#include "scenario/stream.hpp"
#include "scenario/wal_record.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/crc32.hpp"
#include "snapshot/durable_file.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/md5.hpp"

namespace repro::scenario {
namespace {

namespace fs = std::filesystem;

ScenarioOptions small_options(bool faults) {
  ScenarioOptions options;
  options.scale = 0.04;
  options.seed = 11;
  if (faults) options.faults = fault::FaultPlan::paper_calibrated();
  return options;
}

/// Every CSV artifact concatenated — the observable output the
/// byte-identity guarantee is stated over.
std::string all_csv(const Dataset& ds) {
  std::ostringstream out;
  io::write_events_csv(out, ds.db, ds.e, ds.p, ds.m, ds.b);
  io::write_samples_csv(out, ds.db, ds.b);
  io::write_clusters_csv(out, ds.e);
  io::write_clusters_csv(out, ds.p);
  io::write_clusters_csv(out, ds.m);
  io::write_profiles_jsonl(out, ds.db);
  return out.str();
}

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path{testing::TempDir()} / ("stream-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Streaming options rooted under one fresh directory (wal/ + ckpt/).
StreamOptions stream_under(const fs::path& root, ScenarioOptions& scenario,
                           std::size_t epochs = 3) {
  StreamOptions stream;
  stream.epochs = epochs;
  stream.wal_dir = (root / "wal").string();
  scenario.checkpoint.directory = (root / "ckpt").string();
  return stream;
}

/// Batch baselines, built once per fault setting.
const std::string& batch_csv(bool faults) {
  static const std::string plain = all_csv(build_paper_dataset(
      small_options(false)));
  static const std::string faulty = all_csv(build_paper_dataset(
      small_options(true)));
  return faults ? faulty : plain;
}

/// The faulty batch baseline under B backend `backend`.
std::string backend_batch_csv(cluster::BackendKind backend) {
  ScenarioOptions batch = small_options(true);
  batch.b_backend = backend;
  return all_csv(build_paper_dataset(batch));
}

/// An on_epoch hook that simulates the process dying right after the
/// cut of 1-based epoch `epoch` is durable.
auto crash_after_epoch(std::size_t epoch) {
  return [epoch](const honeypot::EventDatabase&, const snapshot::EpmStage&,
                 const analysis::BehavioralView&, std::size_t durable) {
    if (durable == epoch) {
      throw snapshot::CheckpointInterrupted{"simulated crash after epoch " +
                                            std::to_string(epoch)};
    }
  };
}

// --- Batch equivalence ------------------------------------------------------

TEST(Stream, MatchesBatchByteIdenticalAtEveryWidth) {
  for (const bool faults : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ScenarioOptions options = small_options(faults);
      options.threads = threads;
      const fs::path root = fresh_dir(
          "widths-" + std::to_string(threads) + (faults ? "-f" : ""));
      const StreamOptions stream = stream_under(root, options);
      const Dataset ds = build_streaming_dataset(options, stream);
      EXPECT_EQ(all_csv(ds), batch_csv(faults))
          << "faults=" << faults << " threads=" << threads;
      EXPECT_EQ(ds.ingest.records_appended, ds.db.events().size());
      EXPECT_EQ(ds.ingest.epochs_run, 3u);
    }
  }
}

TEST(Stream, EpochSplitDoesNotChangeOutput) {
  for (const std::size_t epochs : {1u, 2u, 5u}) {
    ScenarioOptions options = small_options(true);
    const fs::path root = fresh_dir("split-" + std::to_string(epochs));
    const StreamOptions stream = stream_under(root, options, epochs);
    const Dataset ds = build_streaming_dataset(options, stream);
    EXPECT_EQ(all_csv(ds), batch_csv(true)) << "epochs=" << epochs;
  }
}

TEST(Stream, FaultReportMatchesBatchPlusDeliveryAccounting) {
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("fault-report");
  const StreamOptions stream = stream_under(root, options);
  const Dataset ds = build_streaming_dataset(options, stream);
  const Dataset batch = build_paper_dataset(small_options(true));
  // Batch counters are a strict subset: generation + enrichment agree
  // exactly, and streaming adds the delivery layer on top.
  EXPECT_EQ(ds.fault_report.proxy_attempts, batch.fault_report.proxy_attempts);
  EXPECT_EQ(ds.fault_report.downloads_corrupted,
            batch.fault_report.downloads_corrupted);
  EXPECT_EQ(ds.fault_report.sandbox_failures,
            batch.fault_report.sandbox_failures);
  EXPECT_EQ(ds.fault_report.av_label_gaps, batch.fault_report.av_label_gaps);
  EXPECT_EQ(ds.fault_report.delivery_checks, 0u + ds.db.events().size() +
                                                 ds.fault_report
                                                     .delivery_retries);
  EXPECT_EQ(batch.fault_report.delivery_checks, 0u);
}

// --- Kill/resume ------------------------------------------------------------

/// Runs the streaming build expecting the configured seam to interrupt
/// it, then reruns clean in the same directories and returns the
/// resumed dataset.
Dataset killed_then_resumed(ScenarioOptions options, StreamOptions stream) {
  bool interrupted = false;
  try {
    (void)build_streaming_dataset(options, stream);
  } catch (const snapshot::CheckpointInterrupted&) {
    interrupted = true;
  }
  EXPECT_TRUE(interrupted) << "seam never fired";
  options.checkpoint.short_write_epoch = 0;
  stream.fail_after_seal = 0;
  stream.after_append = nullptr;
  stream.on_epoch = nullptr;
  return build_streaming_dataset(options, stream);
}

TEST(Stream, KilledAfterEachEpochResumesByteIdentical) {
  for (std::size_t epoch = 1; epoch <= 3; ++epoch) {
    ScenarioOptions options = small_options(true);
    const fs::path root = fresh_dir("epoch-kill-" + std::to_string(epoch));
    StreamOptions stream = stream_under(root, options);
    stream.on_epoch = crash_after_epoch(epoch);
    const Dataset resumed = killed_then_resumed(options, stream);
    EXPECT_EQ(all_csv(resumed), batch_csv(true)) << "killed after epoch "
                                                 << epoch;
    EXPECT_EQ(resumed.ingest.epochs_restored, 1u);
    EXPECT_EQ(resumed.ingest.epochs_run + epoch, 3u)
        << "killed after epoch " << epoch;
  }
}

TEST(Stream, KilledMidEpochCheckpointWriteResumesByteIdentical) {
  for (int epoch = 1; epoch <= 3; ++epoch) {
    ScenarioOptions options = small_options(true);
    const fs::path root = fresh_dir("mid-write-" + std::to_string(epoch));
    const StreamOptions stream = stream_under(root, options);
    options.checkpoint.short_write_epoch = epoch;
    const Dataset resumed = killed_then_resumed(options, stream);
    EXPECT_EQ(all_csv(resumed), batch_csv(true))
        << "killed mid-checkpoint of epoch " << epoch;
    // The interrupted epoch left only a ".tmp", so the WAL is ahead of
    // the newest valid cut and the replay healed the difference.
    EXPECT_EQ(resumed.ingest.epochs_run,
              static_cast<std::uint64_t>(4 - epoch));
  }
}

TEST(Stream, KilledAfterArbitraryAppendsResumesByteIdentical) {
  for (const std::uint64_t kill_at : {1ull, 7ull, 23ull}) {
    ScenarioOptions options = small_options(true);
    const fs::path root = fresh_dir("append-kill-" + std::to_string(kill_at));
    StreamOptions stream = stream_under(root, options);
    stream.after_append = [kill_at](std::uint64_t appended) {
      if (appended == kill_at) {
        throw snapshot::CheckpointInterrupted{"simulated crash mid-epoch"};
      }
    };
    const Dataset resumed = killed_then_resumed(options, stream);
    EXPECT_EQ(all_csv(resumed), batch_csv(true)) << "killed after append "
                                                 << kill_at;
  }
}

TEST(Stream, KilledDuringSegmentRotationResumesByteIdentical) {
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("rotation-kill");
  StreamOptions stream = stream_under(root, options);
  stream.segment_bytes = 4096;  // force rotations mid-epoch
  stream.fail_after_seal = 2;
  const Dataset resumed = killed_then_resumed(options, stream);
  EXPECT_EQ(all_csv(resumed), batch_csv(true));
  EXPECT_GT(resumed.ingest.segments_sealed, 2u);
}

TEST(Stream, PowerCutLosingTheOpenSegmentResumesByteIdentical) {
  // The WAL syncs a segment only when it seals it, and the loop seals
  // before every cut. A power cut mid-epoch can therefore lose whatever
  // the open segment held past its last sync, but never a record a cut
  // covers. Die five appends into epoch 2, then make the open segment
  // look like a power cut three ways: the resume must restore epoch 1's
  // cut, re-append the lost records from the regenerated stream and
  // export what batch does.
  for (const std::string damage : {"empty", "header-only", "zeroed-frames"}) {
    ScenarioOptions options = small_options(true);
    const fs::path root = fresh_dir("power-cut-" + damage);
    StreamOptions stream = stream_under(root, options);
    std::size_t cut_epochs = 0;
    std::uint64_t appended = 0;
    std::uint64_t since_cut = 0;
    stream.on_epoch = [&cut_epochs](const honeypot::EventDatabase&,
                                    const snapshot::EpmStage&,
                                    const analysis::BehavioralView&,
                                    std::size_t epoch) { cut_epochs = epoch; };
    stream.after_append = [&](std::uint64_t appended_this_run) {
      appended = appended_this_run;
      if (cut_epochs == 1 && ++since_cut == 5) {
        throw snapshot::CheckpointInterrupted{"simulated crash mid-epoch"};
      }
    };
    EXPECT_THROW((void)build_streaming_dataset(options, stream),
                 snapshot::CheckpointInterrupted);
    ASSERT_EQ(since_cut, 5u) << damage;

    std::vector<fs::path> open_segments;
    for (const auto& entry : fs::directory_iterator(root / "wal")) {
      if (entry.path().string().ends_with(".seg.open")) {
        open_segments.push_back(entry.path());
      }
    }
    ASSERT_EQ(open_segments.size(), 1u) << damage;
    const fs::path& open = open_segments.front();
    const std::uintmax_t size = fs::file_size(open);
    ASSERT_GT(size, ingest::kWalSegmentHeaderBytes) << damage;
    if (damage == "empty") {
      fs::resize_file(open, 0);
    } else if (damage == "header-only") {
      fs::resize_file(open, ingest::kWalSegmentHeaderBytes);
    } else {
      fs::resize_file(open, ingest::kWalSegmentHeaderBytes);
      fs::resize_file(open, size);  // the lost frames read back as zeros
    }

    stream.on_epoch = nullptr;
    stream.after_append = nullptr;
    const Dataset resumed = build_streaming_dataset(options, stream);
    EXPECT_EQ(all_csv(resumed), batch_csv(true)) << damage;
    EXPECT_EQ(resumed.ingest.epochs_restored, 1u) << damage;
    EXPECT_EQ(resumed.ingest.epochs_run, 2u) << damage;
    // Only the five frames past epoch 1's seal were lost.
    EXPECT_EQ(resumed.ingest.records_recovered, appended - 5) << damage;
  }
}

TEST(Stream, RepeatedKillsAtEveryLayerStillConverge) {
  // One run dies mid-append, the resume dies mid-checkpoint, the next
  // dies right after an epoch cut; the fourth finishes. Output must
  // still be byte-identical.
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("repeated");
  StreamOptions stream = stream_under(root, options);
  stream.after_append = [](std::uint64_t appended) {
    if (appended == 11) {
      throw snapshot::CheckpointInterrupted{"crash 1: mid-append"};
    }
  };
  EXPECT_THROW((void)build_streaming_dataset(options, stream),
               snapshot::CheckpointInterrupted);
  stream.after_append = nullptr;
  options.checkpoint.short_write_epoch = 2;
  EXPECT_THROW((void)build_streaming_dataset(options, stream),
               snapshot::CheckpointInterrupted);
  options.checkpoint.short_write_epoch = 0;
  stream.on_epoch = crash_after_epoch(2);
  EXPECT_THROW((void)build_streaming_dataset(options, stream),
               snapshot::CheckpointInterrupted);
  stream.on_epoch = nullptr;
  const Dataset resumed = build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(resumed), batch_csv(true));
}

TEST(Stream, CompletedRunRestoresEverythingOnRerun) {
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("rerun");
  const StreamOptions stream = stream_under(root, options);
  const Dataset first = build_streaming_dataset(options, stream);
  const auto wal_disk_bytes = [&] {
    std::uintmax_t bytes = 0;
    for (const auto& entry : fs::directory_iterator(root / "wal")) {
      bytes += entry.file_size();
    }
    return bytes;
  };
  const std::uintmax_t after_first = wal_disk_bytes();
  const Dataset second = build_streaming_dataset(options, stream);
  // Regression: a warm resume once re-appended the whole stream as
  // duplicate frames (the writer was constructed from a moved-from
  // recovery result), doubling the WAL on every rerun. A rerun must
  // recover everything, append nothing, and see no duplicates.
  EXPECT_EQ(wal_disk_bytes(), after_first);
  EXPECT_EQ(second.ingest.records_recovered, second.db.events().size());
  EXPECT_EQ(second.ingest.duplicate_frames, 0u);
  EXPECT_EQ(all_csv(second), all_csv(first));
  EXPECT_EQ(second.ingest.epochs_run, 0u);
  EXPECT_EQ(second.ingest.epochs_restored, 1u);
  // Stream totals are logical (whole-history) values, not per-process
  // ones: the rerun reports the same totals as the run that did the
  // work.
  EXPECT_EQ(second.ingest.records_appended, first.ingest.records_appended);
  EXPECT_EQ(second.ingest.bytes_appended, first.ingest.bytes_appended);
  EXPECT_EQ(second.fault_report.delivery_checks,
            first.fault_report.delivery_checks);
  EXPECT_EQ(second.fault_report.delivery_retries,
            first.fault_report.delivery_retries);
}

TEST(Stream, DeliveryCountersAreKillInvariant) {
  ScenarioOptions clean_options = small_options(true);
  const fs::path clean_root = fresh_dir("delivery-clean");
  const Dataset clean = build_streaming_dataset(
      clean_options, stream_under(clean_root, clean_options));

  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("delivery-kill");
  StreamOptions stream = stream_under(root, options);
  stream.after_append = [](std::uint64_t appended) {
    if (appended == 17) {
      throw snapshot::CheckpointInterrupted{"crash mid-epoch"};
    }
  };
  const Dataset resumed = killed_then_resumed(options, stream);
  EXPECT_EQ(resumed.fault_report.delivery_checks,
            clean.fault_report.delivery_checks);
  EXPECT_EQ(resumed.fault_report.delivery_failures,
            clean.fault_report.delivery_failures);
  EXPECT_EQ(resumed.fault_report.delivery_retries,
            clean.fault_report.delivery_retries);
  EXPECT_EQ(resumed.fault_report.delivery_retry_exhausted,
            clean.fault_report.delivery_retry_exhausted);
  EXPECT_EQ(resumed.fault_report.delivery_backoff_seconds,
            clean.fault_report.delivery_backoff_seconds);
  EXPECT_EQ(resumed.ingest.records_appended, clean.ingest.records_appended);
  EXPECT_EQ(resumed.ingest.bytes_appended, clean.ingest.bytes_appended);
}

// --- WAL damage healing -----------------------------------------------------

TEST(Stream, DamagedWalHealsFromCheckpointAndStaysByteIdentical) {
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("heal");
  StreamOptions stream = stream_under(root, options);
  stream.segment_bytes = 4096;
  (void)build_streaming_dataset(options, stream);

  // Vandalize the WAL: delete one sealed segment outright and truncate
  // another mid-file. The epoch checkpoints are intact, so the rerun
  // must restore, re-append what the WAL lost, and export identically.
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(root / "wal")) {
    if (entry.path().extension() == ".seg") segments.push_back(entry.path());
  }
  ASSERT_GE(segments.size(), 2u) << "need rotations for this test";
  fs::remove(segments.front());
  fs::resize_file(segments.back(), fs::file_size(segments.back()) / 2);

  const Dataset healed = build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(healed), batch_csv(true));
  EXPECT_EQ(healed.ingest.epochs_restored, 1u);

  // And the WAL itself healed: a third run recovers every record
  // without any salvage work.
  const Dataset third = build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(third), batch_csv(true));
  EXPECT_EQ(third.ingest.records_recovered, third.db.events().size());
  EXPECT_EQ(third.ingest.torn_tails, 0u);
  EXPECT_EQ(third.ingest.corrupt_frames, 0u);
}

TEST(Stream, ForeignWalAndCheckpointsAreRejectedNotMixedIn) {
  // Build under seed A, then rerun the same directories under seed B:
  // everything on disk is stale and the B run must quarantine it all
  // and still match B's batch build.
  ScenarioOptions options_a = small_options(true);
  const fs::path root = fresh_dir("foreign");
  StreamOptions stream = stream_under(root, options_a);
  (void)build_streaming_dataset(options_a, stream);

  ScenarioOptions options_b = small_options(true);
  options_b.seed = options_a.seed + 1;
  options_b.checkpoint.directory = options_a.checkpoint.directory;
  const Dataset ds = build_streaming_dataset(options_b, stream);
  EXPECT_EQ(all_csv(ds),
            all_csv(build_paper_dataset([&] {
              ScenarioOptions batch = small_options(true);
              batch.seed = options_b.seed;
              return batch;
            }())));
  EXPECT_GT(ds.ingest.stale_segments, 0u);
  EXPECT_EQ(ds.ingest.epochs_restored, 0u);
}

// --- Incremental clustering -------------------------------------------------

TEST(Stream, VerifyIncrementalPassesAtEveryWidthUnderFaults) {
  // The cross-check mode byte-compares every epoch's incremental
  // results against a fresh full recompute (the batch clustering step)
  // and throws on the first divergence — so a completed run IS the
  // proof, per width and fault plan.
  for (const bool faults : {false, true}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ScenarioOptions options = small_options(faults);
      options.threads = threads;
      const fs::path root = fresh_dir("verify-" + std::to_string(threads) +
                                      (faults ? "-f" : ""));
      StreamOptions stream = stream_under(root, options);
      stream.verify_incremental = true;
      const Dataset ds = build_streaming_dataset(options, stream);
      EXPECT_EQ(all_csv(ds), batch_csv(faults))
          << "faults=" << faults << " threads=" << threads;
      EXPECT_EQ(ds.ingest.epochs_verified, 3u);
    }
  }
}

TEST(Stream, VerifyIncrementalSurvivesKillsAtEveryEpochBoundary) {
  for (std::size_t epoch = 1; epoch <= 3; ++epoch) {
    ScenarioOptions options = small_options(true);
    const fs::path root = fresh_dir("verify-kill-" + std::to_string(epoch));
    StreamOptions stream = stream_under(root, options);
    stream.verify_incremental = true;
    stream.on_epoch = crash_after_epoch(epoch);
    const Dataset resumed = killed_then_resumed(options, stream);
    EXPECT_EQ(all_csv(resumed), batch_csv(true))
        << "killed after epoch " << epoch;
    // A resumed process cross-checks exactly the epochs it computed
    // itself — restored cuts are trusted, not re-verified.
    EXPECT_EQ(resumed.ingest.epochs_verified, resumed.ingest.epochs_run);
    EXPECT_EQ(resumed.ingest.epochs_restored, 1u);
  }
}

TEST(Stream, VerifyIncrementalSurvivesMidEpochKills) {
  for (const std::uint64_t kill_at : {5ull, 19ull}) {
    ScenarioOptions options = small_options(true);
    const fs::path root = fresh_dir("verify-append-" + std::to_string(kill_at));
    StreamOptions stream = stream_under(root, options);
    stream.verify_incremental = true;
    stream.after_append = [kill_at](std::uint64_t appended) {
      if (appended == kill_at) {
        throw snapshot::CheckpointInterrupted{"simulated crash mid-epoch"};
      }
    };
    const Dataset resumed = killed_then_resumed(options, stream);
    EXPECT_EQ(all_csv(resumed), batch_csv(true)) << "kill_at=" << kill_at;
    EXPECT_EQ(resumed.ingest.epochs_verified, resumed.ingest.epochs_run);
  }
}

// --- Backends ---------------------------------------------------------------

/// (backend, verify_incremental)
class StreamBackend
    : public ::testing::TestWithParam<std::tuple<cluster::BackendKind, bool>> {
};

TEST_P(StreamBackend, KilledAfterEachEpochMatchesItsBatchBuild) {
  // Every backend streams in the one epoch clustering mode: E/P/M delta
  // counting and cached signatures always, prior-partition seeding
  // only for the single-linkage backends (kmeans recomputes its
  // partition each epoch). Killed after every epoch, at every width,
  // with and without the verify cross-check, each resume must export
  // exactly what the batch build under the same backend exports.
  const auto [backend, verify] = GetParam();
  const std::string expected = backend_batch_csv(backend);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (std::size_t epoch = 1; epoch <= 3; ++epoch) {
      ScenarioOptions options = small_options(true);
      options.b_backend = backend;
      options.threads = threads;
      const fs::path root = fresh_dir(
          std::string{cluster::backend_name(backend)} +
          (verify ? "-verify-" : "-") + std::to_string(threads) + "-" +
          std::to_string(epoch));
      StreamOptions stream = stream_under(root, options);
      stream.verify_incremental = verify;
      stream.on_epoch = crash_after_epoch(epoch);
      const Dataset resumed = killed_then_resumed(options, stream);
      EXPECT_EQ(all_csv(resumed), expected)
          << "threads=" << threads << " killed after epoch " << epoch;
      EXPECT_EQ(resumed.ingest.epochs_restored, 1u);
      EXPECT_EQ(resumed.ingest.epochs_verified,
                verify ? resumed.ingest.epochs_run : 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, StreamBackend,
    ::testing::Combine(::testing::Values(cluster::BackendKind::kLsh,
                                         cluster::BackendKind::kExact,
                                         cluster::BackendKind::kKmeans),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<cluster::BackendKind, bool>>&
           param_info) {
      return std::string{cluster::backend_name(std::get<0>(param_info.param))} +
             (std::get<1>(param_info.param) ? "_verify" : "");
    });

TEST(Stream, EpochCutFromAnotherBackendIsDeclined) {
  // A cut's fingerprint names the backend that produced its partition,
  // so switching backends over one WAL and checkpoint directory finds
  // only stale cuts: it quarantines them — never seeds from them, never
  // refuses to run — and replays from record 0 to that backend's own
  // batch output.
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("backend-switch");
  StreamOptions stream = stream_under(root, options);
  stream.verify_incremental = true;
  stream.on_epoch = crash_after_epoch(1);  // cut epoch 1 with lsh
  EXPECT_THROW((void)build_streaming_dataset(options, stream),
               snapshot::CheckpointInterrupted);
  stream.on_epoch = nullptr;

  for (const cluster::BackendKind backend :
       {cluster::BackendKind::kExact, cluster::BackendKind::kKmeans,
        cluster::BackendKind::kLsh}) {
    options.b_backend = backend;
    const Dataset switched = build_streaming_dataset(options, stream);
    const std::string_view name = cluster::backend_name(backend);
    // Every cut on disk is the previous backend's.
    EXPECT_EQ(switched.ingest.epochs_restored, 0u) << name;
    EXPECT_EQ(switched.checkpoint_activity.restored, 0u) << name;
    EXPECT_GT(switched.checkpoint_activity.stale, 0u) << name;
    EXPECT_EQ(switched.ingest.epochs_run, 3u) << name;
    EXPECT_EQ(switched.ingest.epochs_verified, 3u) << name;
    EXPECT_EQ(all_csv(switched), backend_batch_csv(backend)) << name;
  }
}

TEST(Stream, ForeignCutDoesNotShadowTheBackendsOwnCuts) {
  // lsh cuts more epochs than exact does, so its newest file has a
  // higher index than any exact cut. Once set aside it must not keep
  // shadowing exact's own cuts: the second exact run resumes.
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("backend-shadow");
  (void)build_streaming_dataset(options, stream_under(root, options, 8));

  options.b_backend = cluster::BackendKind::kExact;
  const StreamOptions stream = stream_under(root, options, 4);
  const Dataset first = build_streaming_dataset(options, stream);
  EXPECT_EQ(first.ingest.epochs_restored, 0u);
  EXPECT_EQ(first.checkpoint_activity.stale, 8u);
  EXPECT_EQ(first.ingest.epochs_run, 4u);

  const Dataset second = build_streaming_dataset(options, stream);
  EXPECT_EQ(second.ingest.epochs_restored, 1u);
  EXPECT_EQ(second.checkpoint_activity.quarantined, 0u);
  EXPECT_EQ(second.ingest.epochs_run, 0u);
  const std::string expected = backend_batch_csv(cluster::BackendKind::kExact);
  EXPECT_EQ(all_csv(first), expected);
  EXPECT_EQ(all_csv(second), expected);
}

std::uint64_t counter_of(const obs::MetricsRegistry& metrics,
                         const std::string& name, obs::Channel channel) {
  for (const auto& [counter, value] : metrics.counter_values(channel)) {
    if (counter == name) return value;
  }
  ADD_FAILURE() << "missing counter " << name;
  return 0;
}

/// The kill-invariant deterministic counters (the pipeline, enrich,
/// fault, cluster and epm families): what every run of one stream must
/// publish however it got there. The per-run families — snapshot.*,
/// ingest.epochs.*, ingest.queue.* and the WAL recovery counters — are
/// left out.
std::vector<std::pair<std::string, std::uint64_t>> kill_invariant_counters(
    const obs::MetricsRegistry& metrics) {
  std::vector<std::pair<std::string, std::uint64_t>> kept;
  for (const auto& [name, value] :
       metrics.counter_values(obs::Channel::kDeterministic)) {
    for (const std::string_view family :
         {"pipeline.", "enrich.", "fault.", "cluster.", "epm."}) {
      if (name.starts_with(family)) kept.emplace_back(name, value);
    }
  }
  return kept;
}

/// Every FaultReport field of `actual` equals `expected`'s.
void expect_same_fault_report(const fault::FaultReport& actual,
                              const fault::FaultReport& expected) {
#define REPRO_EXPECT_FIELD(field) \
  EXPECT_EQ(actual.field, expected.field) << #field
  REPRO_EXPECT_FIELD(attacks_lost_to_outage);
  REPRO_EXPECT_FIELD(sensor_checks);
  REPRO_EXPECT_FIELD(proxy_attempts);
  REPRO_EXPECT_FIELD(proxy_failures);
  REPRO_EXPECT_FIELD(proxy_retries);
  REPRO_EXPECT_FIELD(refinements_abandoned);
  REPRO_EXPECT_FIELD(proxy_backoff_seconds);
  REPRO_EXPECT_FIELD(download_checks);
  REPRO_EXPECT_FIELD(downloads_refused);
  REPRO_EXPECT_FIELD(downloads_corrupted);
  REPRO_EXPECT_FIELD(sandbox_checks);
  REPRO_EXPECT_FIELD(sandbox_failures);
  REPRO_EXPECT_FIELD(av_label_checks);
  REPRO_EXPECT_FIELD(av_label_gaps);
  REPRO_EXPECT_FIELD(delivery_checks);
  REPRO_EXPECT_FIELD(delivery_failures);
  REPRO_EXPECT_FIELD(delivery_retries);
  REPRO_EXPECT_FIELD(delivery_retry_exhausted);
  REPRO_EXPECT_FIELD(delivery_backoff_seconds);
  REPRO_EXPECT_FIELD(serve_checks);
  REPRO_EXPECT_FIELD(serve_slow_clients);
  REPRO_EXPECT_FIELD(serve_disconnects);
  REPRO_EXPECT_FIELD(serve_accept_failures);
#undef REPRO_EXPECT_FIELD
}

TEST(Stream, IncrementalCountersAreKillInvariant) {
  constexpr std::size_t kEpochs = 4;

  // B's item count after each epoch of an uninterrupted run.
  obs::MetricsRegistry clean_metrics;
  ScenarioOptions clean_options = small_options(true);
  clean_options.metrics = &clean_metrics;
  const fs::path clean_root = fresh_dir("counters-clean");
  StreamOptions clean_stream = stream_under(clean_root, clean_options, kEpochs);
  std::vector<std::uint64_t> items;
  clean_stream.on_epoch = [&items](const honeypot::EventDatabase&,
                                   const snapshot::EpmStage&,
                                   const analysis::BehavioralView& bview,
                                   std::size_t) {
    items.push_back(bview.clusters().assignment.size());
  };
  (void)build_streaming_dataset(clean_options, clean_stream);
  ASSERT_EQ(items.size(), kEpochs);
  const std::uint64_t reclassified = counter_of(
      clean_metrics, "epm.instances_reclassified", obs::Channel::kDeterministic);
  // Every epoch after the first reuses the previous epoch's signatures.
  EXPECT_EQ(counter_of(clean_metrics, "cluster.signatures_reused",
                       obs::Channel::kRuntime),
            items[0] + items[1] + items[2]);
  EXPECT_GT(items[0], 0u);

  // The same stream killed after epoch 2 and resumed publishes the same
  // reclassification total, restored from the cut. The signature cache
  // is process-local: the resumed process hashes the restored prefix in
  // epoch 3 and reuses only that in epoch 4.
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("counters-kill");
  StreamOptions stream = stream_under(root, options, kEpochs);
  stream.on_epoch = crash_after_epoch(2);
  EXPECT_THROW((void)build_streaming_dataset(options, stream),
               snapshot::CheckpointInterrupted);
  stream.on_epoch = nullptr;
  obs::MetricsRegistry resumed_metrics;
  options.metrics = &resumed_metrics;
  const Dataset resumed = build_streaming_dataset(options, stream);
  EXPECT_EQ(resumed.ingest.epochs_restored, 1u);
  EXPECT_EQ(counter_of(resumed_metrics, "epm.instances_reclassified",
                       obs::Channel::kDeterministic),
            reclassified);
  EXPECT_EQ(counter_of(resumed_metrics, "cluster.signatures_reused",
                       obs::Channel::kRuntime),
            items[2]);
}

TEST(Stream, OlderSnapshotVersionIsQuarantinedOnWarmResume) {
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("old-version");
  const StreamOptions stream = stream_under(root, options);
  (void)build_streaming_dataset(options, stream);

  // Rewrite every epoch cut as a version-(n-1) container with a valid
  // trailer CRC — exactly what a file written by the previous release
  // looks like to this one.
  std::size_t patched = 0;
  for (const auto& entry :
       fs::directory_iterator(options.checkpoint.directory)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with("epoch-") || !name.ends_with(".snap")) continue;
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in{entry.path(), std::ios::binary};
      ASSERT_TRUE(in) << entry.path();
      bytes.assign(std::istreambuf_iterator<char>{in},
                   std::istreambuf_iterator<char>{});
    }
    ASSERT_GT(bytes.size(), 12u);
    bytes[4] = static_cast<std::uint8_t>(snapshot::kSnapshotVersion - 1);
    const std::uint32_t fixed =
        snapshot::crc32(std::span{bytes}.first(bytes.size() - 8));
    for (int i = 0; i < 4; ++i) {
      bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(fixed >> (8 * i));
    }
    std::ofstream out{entry.path(), std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.flush()) << entry.path();
    ++patched;
  }
  ASSERT_GT(patched, 0u);

  // The resume must set the old cuts aside (not crash on them, not
  // trust them), rebuild every epoch from the intact WAL, and export
  // identically.
  const Dataset resumed = build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(resumed), batch_csv(true));
  EXPECT_EQ(resumed.ingest.epochs_restored, 0u);
  EXPECT_EQ(resumed.ingest.epochs_run, 3u);
  EXPECT_GE(resumed.checkpoint_activity.quarantined, patched);
  bool any_quarantined = false;
  for (const auto& entry :
       fs::directory_iterator(options.checkpoint.directory)) {
    if (entry.path().filename().string().find(".quarantined") !=
        std::string::npos) {
      any_quarantined = true;
    }
  }
  EXPECT_TRUE(any_quarantined) << "old cuts must be set aside as evidence";
}

// --- Epoch cut contents -----------------------------------------------------

/// Every epoch cut in `dir`, decoded, newest last.
std::vector<std::pair<fs::path, snapshot::DecodedSnapshot>> epoch_cuts(
    const fs::path& dir) {
  std::vector<std::pair<fs::path, snapshot::DecodedSnapshot>> cuts;
  for (std::uint64_t epoch = 0;; ++epoch) {
    const fs::path path = dir / snapshot::epoch_filename(epoch);
    if (!fs::exists(path)) break;
    const auto bytes = snapshot::read_whole_file(path.string());
    EXPECT_TRUE(bytes.has_value()) << path;
    if (!bytes.has_value()) break;
    cuts.emplace_back(path, snapshot::decode_snapshot(*bytes));
  }
  return cuts;
}

/// Re-seals a decoded cut, with valid CRCs, over the file at `path`.
void write_cut(const fs::path& path, const snapshot::DecodedSnapshot& cut) {
  const std::vector<std::uint8_t> bytes =
      snapshot::encode_snapshot(cut.fingerprint, cut.sections);
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.flush()) << path;
}

TEST(Stream, EpochCutsCarryNoSampleContent) {
  // The WAL is the only durable copy of the raw samples; a cut holds
  // derived state only, so it stays a small fraction of the stream.
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("cut-contents");
  const StreamOptions stream = stream_under(root, options);
  const Dataset ds = build_streaming_dataset(options, stream);
  const auto cuts = epoch_cuts(options.checkpoint.directory);
  ASSERT_EQ(cuts.size(), 3u);
  EXPECT_LT(fs::file_size(cuts.back().first) * 10, ds.ingest.bytes_appended);

  // No section holds any sample's bytes: look for a high-entropy window
  // of every sample (PE padding would match any run of zeros) inside
  // every section of every cut.
  std::size_t probed = 0;
  for (const honeypot::MalwareSample& sample : ds.db.samples()) {
    constexpr std::size_t kWindow = 48;
    auto window = sample.content.end();
    for (std::size_t at = 0; at + kWindow <= sample.content.size();
         at += kWindow) {
      const auto begin =
          sample.content.begin() + static_cast<std::ptrdiff_t>(at);
      const std::set<std::uint8_t> distinct{begin, begin + kWindow};
      if (distinct.size() >= kWindow / 2) {
        window = begin;
        break;
      }
    }
    if (window == sample.content.end()) continue;
    ++probed;
    for (const auto& [path, cut] : cuts) {
      for (const snapshot::Section& section : cut.sections) {
        EXPECT_NE(section.name, "database") << path;
        EXPECT_EQ(std::search(section.payload.begin(), section.payload.end(),
                              window, window + kWindow),
                  section.payload.end())
            << "sample " << sample.md5 << " found in section '"
            << section.name << "' of " << path;
      }
    }
  }
  EXPECT_GT(probed * 2, ds.db.samples().size());
}

TEST(Stream, CutThatDisagreesWithTheReplayIsNeverTrusted) {
  // Rewrite the only cut so that it no longer describes the WAL prefix
  // it claims — its sample count, or one md5 of its enrichment column —
  // and re-seal it with valid CRCs. Resume must replay the prefix, see
  // the mismatch, set the cut aside and rebuild cold from record 0.
  for (const bool rewrite_count : {true, false}) {
    ScenarioOptions options = small_options(true);
    const fs::path root =
        fresh_dir(rewrite_count ? "forged-count" : "forged-md5");
    StreamOptions stream = stream_under(root, options);
    stream.on_epoch = crash_after_epoch(1);
    EXPECT_THROW((void)build_streaming_dataset(options, stream),
                 snapshot::CheckpointInterrupted);
    stream.on_epoch = nullptr;

    auto cuts = epoch_cuts(options.checkpoint.directory);
    ASSERT_EQ(cuts.size(), 1u);
    auto& [path, cut] = cuts.front();
    for (snapshot::Section& section : cut.sections) {
      if (rewrite_count && section.name == "epoch-meta") {
        // [epoch u64][wal_records u64][event total u64]
        // [sample count u64][reclassified u64 x3]
        ASSERT_EQ(section.payload.size(), 56u);
        ++section.payload[24];
      }
      if (!rewrite_count && section.name == "samples") {
        // [count u64][md5 length u32][md5 ...] — flip the first md5.
        ASSERT_GT(section.payload.size(), 12u);
        section.payload[12] = section.payload[12] == '0' ? '1' : '0';
      }
    }
    write_cut(path, cut);

    const Dataset resumed = build_streaming_dataset(options, stream);
    EXPECT_EQ(all_csv(resumed), batch_csv(true))
        << "rewrite_count=" << rewrite_count;
    EXPECT_EQ(resumed.ingest.epochs_restored, 0u);
    EXPECT_EQ(resumed.ingest.epochs_run, 3u);
    EXPECT_EQ(resumed.checkpoint_activity.restored, 0u);
    EXPECT_EQ(resumed.checkpoint_activity.quarantined, 1u);
    EXPECT_TRUE(fs::exists(path.string() + ".quarantined"));
  }
}

TEST(Stream, CutThatCannotBePrimedIsQuarantined) {
  // A cut whose samples match the replay but whose results or totals do
  // not describe it — epoch 1's epsilon clustering with one invariant
  // dropped from its table, or empty stream totals — is quarantined and
  // the run rebuilds cold from record 0, like any other cut the replay
  // disagrees with. It must never abort the resume.
  for (const std::string forgery : {"forged-invariants", "empty-totals"}) {
    ScenarioOptions options = small_options(true);
    const fs::path root = fresh_dir(forgery);
    StreamOptions stream = stream_under(root, options);
    stream.on_epoch = crash_after_epoch(2);
    EXPECT_THROW((void)build_streaming_dataset(options, stream),
                 snapshot::CheckpointInterrupted);
    stream.on_epoch = nullptr;

    auto cuts = epoch_cuts(options.checkpoint.directory);
    ASSERT_EQ(cuts.size(), 2u);
    auto& [path, cut] = cuts.back();
    for (snapshot::Section& section : cut.sections) {
      if (forgery == "forged-invariants" && section.name == "epsilon") {
        ByteReader reader{section.payload};
        cluster::EpmResult result = snapshot::read_epm_result(reader);
        cluster::InvariantTable kept{result.schema.size()};
        bool dropped = false;
        for (std::size_t f = 0; f < result.schema.size(); ++f) {
          for (const std::string& value : result.invariants.sorted_values(f)) {
            if (dropped) kept.add(f, value);
            dropped = true;
          }
        }
        ASSERT_TRUE(dropped) << "epoch 1 has no epsilon invariant to drop";
        result.invariants = std::move(kept);
        ByteWriter writer;
        snapshot::write_epm_result(writer, result);
        section.payload = writer.take();
      }
      if (forgery == "empty-totals" && section.name == "ingest") {
        section.payload.clear();
      }
    }
    write_cut(path, cut);

    const Dataset resumed = build_streaming_dataset(options, stream);
    EXPECT_EQ(all_csv(resumed), batch_csv(true)) << forgery;
    EXPECT_EQ(resumed.ingest.epochs_restored, 0u) << forgery;
    EXPECT_EQ(resumed.ingest.epochs_run, 3u) << forgery;
    EXPECT_EQ(resumed.checkpoint_activity.restored, 0u) << forgery;
    EXPECT_EQ(resumed.checkpoint_activity.quarantined, 1u) << forgery;
    EXPECT_TRUE(fs::exists(path.string() + ".quarantined")) << forgery;
  }
}

TEST(Stream, LostWalDirectoryHealsFromTheRegeneratedStream) {
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("lost-wal");
  const StreamOptions stream = stream_under(root, options);
  const Dataset first = build_streaming_dataset(options, stream);
  fs::remove_all(root / "wal");

  // The cut still restores: its prefix is replayed from the
  // deterministic regenerated stream and re-appended to a fresh WAL.
  obs::MetricsRegistry healed_metrics;
  options.metrics = &healed_metrics;
  const Dataset healed = build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(healed), batch_csv(true));
  EXPECT_EQ(healed.ingest.epochs_restored, 1u);
  EXPECT_EQ(healed.ingest.epochs_run, 0u);
  // The lost records had to come from somewhere: generation ran, once,
  // and its fault counters were not counted twice.
  EXPECT_EQ(counter_of(healed_metrics, "stream.events_generated",
                       obs::Channel::kRuntime),
            healed.db.events().size());
  expect_same_fault_report(healed.fault_report, first.fault_report);

  obs::MetricsRegistry third_metrics;
  options.metrics = &third_metrics;
  const Dataset third = build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(third), batch_csv(true));
  EXPECT_EQ(third.ingest.records_recovered, third.db.events().size());
  EXPECT_EQ(third.ingest.epochs_restored, 1u);
  EXPECT_EQ(counter_of(third_metrics, "stream.events_generated",
                       obs::Channel::kRuntime),
            0u);
}

TEST(Stream, ResumeOverCompleteWalGeneratesNothing) {
  // The WAL holds every record and the final cut covers them all, with
  // the stream's event total and generation's fault counters: the rerun
  // must rebuild everything from disk without running the sensor
  // simulation, and still report exactly what the run that generated
  // the stream reported.
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("resume-no-generation");
  const StreamOptions stream = stream_under(root, options);
  obs::MetricsRegistry first_metrics;
  options.metrics = &first_metrics;
  const Dataset first = build_streaming_dataset(options, stream);
  EXPECT_EQ(counter_of(first_metrics, "stream.events_generated",
                       obs::Channel::kRuntime),
            counter_of(first_metrics, "pipeline.events",
                       obs::Channel::kDeterministic));

  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  options.metrics = &metrics;
  options.trace = &trace;
  const Dataset resumed = build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(resumed), all_csv(first));
  EXPECT_EQ(resumed.ingest.epochs_restored, 1u);
  EXPECT_EQ(resumed.ingest.epochs_run, 0u);
  expect_same_fault_report(resumed.fault_report, first.fault_report);
  EXPECT_TRUE(resumed.fault_report.any());
  EXPECT_EQ(kill_invariant_counters(metrics),
            kill_invariant_counters(first_metrics));
  EXPECT_EQ(counter_of(metrics, "stream.events_generated",
                       obs::Channel::kRuntime),
            0u);
  for (const obs::TraceRecorder::Span& span : trace.spans()) {
    EXPECT_NE(span.name, "stream.generate");
  }
}

/// Rewrites the event total in the epoch-meta section of `cut`, leaving
/// every other byte as it was.
void forge_event_total(snapshot::DecodedSnapshot& cut, std::uint64_t total) {
  for (snapshot::Section& section : cut.sections) {
    if (section.name != "epoch-meta") continue;
    // [epoch u64][wal_records u64][event total u64]...
    ASSERT_GE(section.payload.size(), 24u);
    for (std::size_t i = 0; i < 8; ++i) {
      section.payload[16 + i] = static_cast<std::uint8_t>(total >> (8 * i));
    }
    return;
  }
  ADD_FAILURE() << "cut has no epoch-meta section";
}

TEST(Stream, CutWithAWrongEventTotalIsNeverTrusted) {
  // Re-seal the final cut with a forged event total: CRCs and
  // fingerprint stay valid, so only the total lies. A total below the
  // records the cut covers never decodes; a total the regenerated stream
  // contradicts declines the cut. Either way the cut is set aside and
  // the export stays what batch exports.
  for (const bool below : {true, false}) {
    ScenarioOptions options = small_options(true);
    const fs::path root =
        fresh_dir(below ? "forged-total-below" : "forged-total-above");
    const StreamOptions stream = stream_under(root, options);
    const Dataset first = build_streaming_dataset(options, stream);
    const std::uint64_t records = first.db.events().size();

    auto cuts = epoch_cuts(options.checkpoint.directory);
    ASSERT_EQ(cuts.size(), 3u);
    auto& [path, cut] = cuts.back();
    forge_event_total(cut, below ? records - 1 : records + 1);
    write_cut(path, cut);
    if (!below) fs::remove_all(root / "wal");

    obs::MetricsRegistry metrics;
    options.metrics = &metrics;
    const Dataset resumed = build_streaming_dataset(options, stream);
    EXPECT_EQ(all_csv(resumed), batch_csv(true)) << "below=" << below;
    expect_same_fault_report(resumed.fault_report, first.fault_report);
    EXPECT_EQ(resumed.checkpoint_activity.quarantined, 1u) << "below=" << below;
    EXPECT_TRUE(fs::exists(path.string() + ".quarantined"))
        << "below=" << below;
    if (below) {
      // Quarantined at load: the scan moves on to epoch 2's cut.
      EXPECT_EQ(resumed.ingest.epochs_restored, 1u);
      EXPECT_EQ(resumed.ingest.epochs_run, 1u);
    } else {
      // Declined once generation contradicted it: replay from record 0.
      EXPECT_EQ(resumed.ingest.epochs_restored, 0u);
      EXPECT_EQ(resumed.checkpoint_activity.restored, 0u);
      EXPECT_EQ(resumed.ingest.epochs_run, 3u);
    }
    EXPECT_EQ(counter_of(metrics, "stream.events_generated",
                         obs::Channel::kRuntime),
              records)
        << "below=" << below;
  }
}

// --- WAL records -------------------------------------------------------------

ingest::WalOptions wal_at(const StreamOptions& stream) {
  ingest::WalOptions wal;
  wal.directory = stream.wal_dir;
  wal.segment_bytes = stream.segment_bytes;
  return wal;
}

/// Every record payload of the WAL under `stream`, in record order.
std::vector<std::vector<std::uint8_t>> wal_records(
    const ScenarioOptions& options, const StreamOptions& stream) {
  ingest::IngestReport report;
  return ingest::recover_wal(wal_at(stream), scenario_fingerprint(options),
                             report)
      .records;
}

/// A record's sample block, parsed independently of replay_record.
struct RecordSample {
  std::uint8_t kind = 0;  // 0 none / 1 content / 2 reference
  std::size_t digest_offset = 0;
  std::string md5;
  std::vector<std::uint8_t> content;
};

RecordSample parse_record_sample(std::span<const std::uint8_t> payload) {
  ByteReader reader{payload};
  EXPECT_EQ(reader.u8(), kRecordVersion);
  (void)snapshot::read_attack_event(reader);
  RecordSample sample;
  sample.kind = reader.u8();
  if (sample.kind == 0) return sample;
  sample.digest_offset = reader.offset();
  sample.md5 = hex_encode(reader.bytes(16));
  if (sample.kind == 1) {
    sample.content = reader.bytes(static_cast<std::size_t>(reader.u64()));
  }
  return sample;
}

TEST(Stream, EveryRecordCarriesTheDigestOfItsSampleAndContentOnce) {
  ScenarioOptions options = small_options(true);
  options.scale = 0.05;
  const fs::path root = fresh_dir("record-sweep");
  const StreamOptions stream = stream_under(root, options);
  const Dataset ds = build_streaming_dataset(options, stream);
  const std::vector<std::vector<std::uint8_t>> records =
      wal_records(options, stream);
  ASSERT_EQ(records.size(), ds.db.events().size());

  std::set<std::string> logged;
  std::size_t content_records = 0;
  std::size_t reference_records = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RecordSample sample = parse_record_sample(records[i]);
    const honeypot::AttackEvent& event = ds.db.events()[i];
    if (sample.kind == 0) {
      EXPECT_FALSE(event.sample.has_value()) << "record " << i;
      continue;
    }
    ASSERT_TRUE(event.sample.has_value()) << "record " << i;
    EXPECT_EQ(sample.md5, ds.db.sample(*event.sample).md5) << "record " << i;
    if (sample.kind == 1) {
      EXPECT_EQ(Md5::hex_digest(sample.content), sample.md5) << "record " << i;
      EXPECT_TRUE(logged.insert(sample.md5).second)
          << "record " << i << " logs a sample's content twice";
      ++content_records;
    } else {
      ASSERT_EQ(sample.kind, 2) << "record " << i;
      EXPECT_TRUE(logged.contains(sample.md5))
          << "record " << i << " references a sample no earlier record holds";
      ++reference_records;
    }
  }
  EXPECT_EQ(content_records, ds.db.samples().size());
  EXPECT_GT(reference_records, 0u);
}

TEST(Stream, VerifyIncrementalCatchesAForgedRecordDigest) {
  ScenarioOptions options = small_options(true);
  const fs::path root = fresh_dir("forged-digest");
  StreamOptions stream = stream_under(root, options);
  const Dataset clean = build_streaming_dataset(options, stream);
  std::vector<std::vector<std::uint8_t>> records = wal_records(options, stream);
  ASSERT_EQ(records.size(), clean.db.events().size());

  // Flip one bit of the first content record's digest, then write the
  // whole WAL again through a fresh writer so every frame CRC is valid:
  // only the record payload lies.
  bool forged = false;
  for (std::vector<std::uint8_t>& record : records) {
    const RecordSample sample = parse_record_sample(record);
    if (sample.kind != 1) continue;
    record[sample.digest_offset] ^= 0x01;
    forged = true;
    break;
  }
  ASSERT_TRUE(forged);
  fs::remove_all(stream.wal_dir);
  {
    ingest::IngestReport report;
    const ingest::WalOptions wal = wal_at(stream);
    const std::uint64_t fingerprint = scenario_fingerprint(options);
    const ingest::RecoveredWal empty =
        ingest::recover_wal(wal, fingerprint, report);
    ingest::WalWriter writer{wal, fingerprint, empty, nullptr};
    for (const std::vector<std::uint8_t>& record : records) {
      writer.append(record);
    }
    writer.seal();
  }
  ASSERT_EQ(wal_records(options, stream), records);

  // Replay from record 0, so the forged record is replayed, not healed.
  fs::remove_all(options.checkpoint.directory);
  stream.verify_incremental = true;
  EXPECT_THROW((void)build_streaming_dataset(options, stream), ConfigError);
}

TEST(Stream, PreviousWalVersionIsQuarantinedAndRegenerated) {
  ScenarioOptions options = small_options(true);  // no cuts: replay it all
  const fs::path root = fresh_dir("old-wal");
  StreamOptions stream;
  stream.wal_dir = (root / "wal").string();
  stream.segment_bytes = 64u << 10;  // several segments
  (void)build_streaming_dataset(options, stream);

  // Rewrite every segment header as the previous WAL version with a
  // valid header CRC: what a WAL written by the previous release looks
  // like to this one.
  std::size_t patched = 0;
  for (const auto& entry : fs::directory_iterator(stream.wal_dir)) {
    std::optional<std::vector<std::uint8_t>> bytes =
        snapshot::read_whole_file(entry.path().string());
    ASSERT_TRUE(bytes.has_value()) << entry.path();
    ASSERT_GE(bytes->size(), ingest::kWalSegmentHeaderBytes);
    for (int i = 0; i < 4; ++i) {
      (*bytes)[4 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          (ingest::kWalVersion - 1) >> (8 * i));
    }
    const std::uint32_t crc = snapshot::crc32(std::span{*bytes}.first(32));
    for (int i = 0; i < 4; ++i) {
      (*bytes)[32 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    }
    std::ofstream out{entry.path(), std::ios::binary | std::ios::trunc};
    out.write(reinterpret_cast<const char*>(bytes->data()),
              static_cast<std::streamsize>(bytes->size()));
    ASSERT_TRUE(out.flush()) << entry.path();
    ++patched;
  }
  ASSERT_GT(patched, 1u);

  // Every old segment is set aside, none of its records is replayed,
  // and the regenerated stream writes the WAL again.
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  const Dataset upgraded = build_streaming_dataset(options, stream);
  EXPECT_EQ(all_csv(upgraded), batch_csv(true));
  EXPECT_EQ(upgraded.ingest.records_recovered, 0u);
  EXPECT_EQ(counter_of(metrics, "ingest.wal.quarantined",
                       obs::Channel::kDeterministic),
            patched);
  EXPECT_EQ(wal_records(options, stream).size(), upgraded.db.events().size());
}

// --- Metrics ----------------------------------------------------------------

TEST(Stream, DeterministicMetricsIdenticalAcrossThreadWidths) {
  std::string baseline;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ScenarioOptions options = small_options(true);
    options.threads = threads;
    obs::MetricsRegistry metrics;
    options.metrics = &metrics;
    const fs::path root = fresh_dir("metrics-" + std::to_string(threads));
    const StreamOptions stream = stream_under(root, options);
    (void)build_streaming_dataset(options, stream);
    const std::string json = metrics.to_json(obs::Channel::kDeterministic);
    EXPECT_NE(json.find("ingest.wal.records_appended"), std::string::npos);
    EXPECT_NE(json.find("ingest.queue.pushed"), std::string::npos);
    EXPECT_NE(json.find("fault.delivery.checked"), std::string::npos);
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "threads=" << threads;
    }
  }
}

// --- Validation -------------------------------------------------------------

TEST(Stream, OptionsValidate) {
  StreamOptions stream;
  stream.wal_dir = "somewhere";
  stream.epochs = 0;
  EXPECT_THROW(stream.validate(), ConfigError);
  stream = StreamOptions{};
  EXPECT_THROW(stream.validate(), ConfigError);  // missing wal_dir
  stream = StreamOptions{};
  stream.wal_dir = "somewhere";
  stream.retry.max_attempts = 0;
  EXPECT_THROW(stream.validate(), ConfigError);
}

}  // namespace
}  // namespace repro::scenario
