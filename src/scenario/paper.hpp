// The paper-scale scenario: a landscape tuned so the observed dataset
// reproduces the statistics reported in the paper (Section 4.1 counts,
// Table 1 invariants, Figure 3/4/5 shapes, Table 2 topology).
//
// All substitution decisions are documented in DESIGN.md; the knobs
// below are calibrated against the paper's numbers and EXPERIMENTS.md
// records paper-vs-measured for every artifact.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/bview.hpp"
#include "cluster/behavioral.hpp"
#include "cluster/epm.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "honeypot/database.hpp"
#include "honeypot/deployment.hpp"
#include "honeypot/enrichment.hpp"
#include "ingest/report.hpp"
#include "malware/landscape.hpp"
#include "obs/trace.hpp"
#include "sandbox/environment.hpp"
#include "snapshot/checkpoint.hpp"

namespace repro {
class ThreadPool;
struct ThreadPoolMetrics;
}  // namespace repro

namespace repro::cluster {
class IncrementalEpm;
}  // namespace repro::cluster

namespace repro::obs {
class MetricsRegistry;
}  // namespace repro::obs

namespace repro::scenario {

struct ScenarioOptions {
  std::uint64_t seed = 2008;
  /// Scales event rates (not structure); tests use small values for
  /// speed, benches use 1.0 for paper-scale output.
  double scale = 1.0;
  /// Jaccard threshold of the behavioral clustering.
  double b_threshold = 0.70;
  /// B-clustering backend (cluster/backend.hpp registry). Deliberately
  /// NOT part of the scenario fingerprint: the database and EPM results
  /// are backend-independent, so WAL segments are sound to share across
  /// backends. The epoch loop mixes it into its cuts' fingerprint
  /// instead, so a cut from another backend is quarantined as stale and
  /// the run resumes from this backend's own newest cut, or cold (see
  /// DESIGN.md §15).
  cluster::BackendKind b_backend = cluster::BackendKind::kLsh;
  /// Worker-pool width for the processing pipeline (enrichment and the
  /// four clusterings). 0 = hardware_concurrency, 1 = the bit-exact
  /// legacy serial path. Output is byte-identical at every width, so —
  /// like the checkpoint knobs — this never enters the scenario
  /// fingerprint.
  std::size_t threads = 0;
  /// Fault-injection plan. The default (empty) plan is guaranteed to
  /// produce a dataset bit-identical to a run without any injector.
  fault::FaultPlan faults;
  /// Crash-safe epoch checkpoints of build_streaming_dataset (opt-in).
  /// When `checkpoint.directory` is set, every epoch is cut there and
  /// the next run resumes from the newest valid cut. Resumed output is
  /// byte-identical to an uninterrupted run; cuts written under
  /// different options (seed, scale, threshold, fault plan) are
  /// rejected by fingerprint and recomputed. build_paper_dataset does
  /// not checkpoint and rejects a directory here with ConfigError; the
  /// durable one-shot build is build_streaming_dataset with epochs = 1.
  snapshot::CheckpointOptions checkpoint;
  /// Optional observability sinks (non-owning). Purely observational:
  /// attaching them never changes a single dataset byte, and — like
  /// `threads` and the checkpoint knobs — they are excluded from the
  /// scenario fingerprint. Deterministic-channel metrics come out
  /// byte-identical at every pool width; the trace (and the runtime
  /// channel it carries) is wall-clock data and is not.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

/// Stable 64-bit digest of every dataset-shaping option (seed, scale,
/// threshold and the full fault plan — not the checkpoint knobs, and
/// not `threads`, which never changes the dataset). Embedded in epoch
/// cuts and WAL segments so stale state never leaks across
/// configurations. `b_backend` is also excluded: WAL segments are
/// shared across backends, while epoch cuts mix the backend into this
/// digest (see ScenarioOptions).
[[nodiscard]] std::uint64_t scenario_fingerprint(
    const ScenarioOptions& options);

/// Ground truth: families, variants, exploits, payload specs, window.
[[nodiscard]] malware::Landscape make_paper_landscape(
    const ScenarioOptions& options = {});

/// Execution environment consistent with the landscape: IRC C&C
/// servers up for the first ~70% of their botnet's activity window, and
/// the downloader's distribution domain resolving for the first ~60% of
/// the observation period.
[[nodiscard]] sandbox::Environment make_paper_environment(
    const malware::Landscape& landscape);

/// Everything the analyses need, produced by one pipeline run:
/// generate -> observe -> enrich -> cluster (E, P, M, B).
struct Dataset {
  malware::Landscape landscape;
  sandbox::Environment environment;
  honeypot::EventDatabase db;
  honeypot::EnrichmentStats enrichment;
  cluster::EpmResult e;
  cluster::EpmResult p;
  cluster::EpmResult m;
  analysis::BehavioralView b;
  /// Per-stage fault counters accumulated while building the dataset;
  /// all-zero when `ScenarioOptions::faults` is empty. A streaming
  /// resume restores the cumulative report from the epoch cut (the
  /// injector is not re-exercised for restored epochs, nor for
  /// generation when the resume does not regenerate the stream).
  fault::FaultReport fault_report;
  /// What epoch checkpointing did during this build (all-zero for the
  /// batch build and when disabled).
  snapshot::CheckpointStore::Activity checkpoint_activity;
  /// Streaming-ingest accounting; all-zero for a one-shot batch build
  /// (only build_streaming_dataset drives the WAL/queue/epoch path).
  ingest::IngestReport ingest;
};

/// The one-shot batch build. Throws ConfigError when
/// `options.checkpoint.directory` is set: batch never checkpoints.
[[nodiscard]] Dataset build_paper_dataset(const ScenarioOptions& options = {});

/// The deployment configuration the paper scenario runs under; shared
/// by the batch build above and the streaming epoch loop so both
/// generate the exact same event sequence.
[[nodiscard]] honeypot::DeploymentConfig make_paper_deployment_config(
    const ScenarioOptions& options, fault::FaultInjector* faults);

/// Incremental state that one epoch's clustering advances instead of
/// recomputing from scratch (cluster/incremental.hpp, BehavioralOptions).
struct IncrementalClustering {
  cluster::IncrementalEpm& e;
  cluster::IncrementalEpm& p;
  cluster::IncrementalEpm& m;
  cluster::SignatureStore& signatures;
  /// The previous epoch's B partition; its rows are a prefix of this
  /// epoch's, so it seeds B's union-find when the backend is
  /// single-linkage.
  const std::vector<int>& prior_b;
};

/// The four clusterings of one database.
struct EpochClusters {
  snapshot::EpmStage epm;
  analysis::BehavioralView b;
};

/// The E/P/M/B fan-out, shared by the batch build and every epoch of the
/// streaming loop. The four clusterings are independent views of the
/// same immutable database, so they run as concurrent pool tasks, each
/// under a "cluster.e|p|m|b" span whose parent is `parent`. B uses
/// `options.b_threshold` and `options.b_backend`. With `incremental`,
/// E/P/M advance their engines and B reuses cached signatures (and, for
/// a single-linkage backend, the prior partition); without it
/// everything is recomputed. Both give byte-identical results.
/// `b_metrics` receives B's work counters (the batch build's ABL-9
/// counters); the streaming loop passes none, since per-process counts
/// would differ across a kill and resume.
[[nodiscard]] EpochClusters cluster_epoch(
    const honeypot::EventDatabase& db, const ScenarioOptions& options,
    ThreadPool& pool, obs::TraceRecorder::SpanId parent,
    const IncrementalClustering* incremental = nullptr,
    obs::MetricsRegistry* b_metrics = nullptr);

/// Publishes the dataset's outcome counters ("pipeline.*", "enrich.*",
/// "cluster.*", "fault.*", "snapshot.*") on the deterministic channel.
/// Values come from the final Dataset, so fresh, resumed and streamed
/// builds of the same configuration export identical metrics.
void publish_dataset_metrics(obs::MetricsRegistry& metrics,
                             const Dataset& dataset);

/// Copies the pool's scheduling telemetry into the registry. Strictly
/// runtime-channel: at width 1 the serial fast paths bypass the pool
/// entirely, so none of these counts can be width-stable.
void publish_pool_metrics(obs::MetricsRegistry& metrics,
                          const ThreadPool& pool,
                          const ThreadPoolMetrics& counters);

}  // namespace repro::scenario
