#include "scenario/stream.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/incremental.hpp"
#include "cluster/minhash.hpp"
#include "ingest/queue.hpp"
#include "ingest/wal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/wal_record.hpp"
#include "snapshot/codec.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace repro::scenario {

namespace {

/// Bounded ingest queue capacity. The epoch driver always uses the
/// kBlock overflow policy: a full queue stalls the producer and is
/// drained to the WAL, so no record is ever shed (shedding would break
/// the byte-identity guarantee; the kShedOldest policy is for lossy
/// sensor-side buffers and is exercised by the ingest tests).
constexpr std::size_t kQueueCapacity = 64;

void accumulate(honeypot::EnrichmentStats& total,
                const honeypot::EnrichmentStats& delta) {
  total.submitted += delta.submitted;
  total.executed += delta.executed;
  total.failed += delta.failed;
  total.parse_failures += delta.parse_failures;
  total.sandbox_faults += delta.sandbox_faults;
  total.label_gaps += delta.label_gaps;
}

// Serialized forms for the --verify-incremental byte diff: the snapshot
// codec is a pure function of the result, so equal bytes here mean
// every downstream artifact (exports, checkpoints) is equal too.
[[nodiscard]] std::vector<std::uint8_t> epm_bytes(
    const cluster::EpmResult& result) {
  ByteWriter writer;
  snapshot::write_epm_result(writer, result);
  return writer.take();
}

[[nodiscard]] std::vector<std::uint8_t> bview_bytes(
    const analysis::BehavioralView& view) {
  ByteWriter writer;
  snapshot::write_behavioral_view(writer, view);
  return writer.take();
}

}  // namespace

void StreamOptions::validate() const {
  if (epochs == 0) {
    throw ConfigError("StreamOptions: epochs must be at least 1");
  }
  ingest::WalOptions wal;
  wal.directory = wal_dir;
  wal.segment_bytes = segment_bytes;
  wal.validate();  // rejects an empty wal_dir / zero segment size
  retry.validate();
}

Dataset build_streaming_dataset(const ScenarioOptions& options,
                                const StreamOptions& stream) {
  options.faults.validate();
  stream.validate();
  const std::uint64_t fingerprint = scenario_fingerprint(options);
  // A cut holds one backend's B partition, so its fingerprint also names
  // the backend: another backend's cut is stale like any other, and the
  // scan moves past it to this backend's own. The WAL keeps the
  // backend-free fingerprint, since its records are shared by every
  // backend.
  snapshot::CheckpointStore store{
      options.checkpoint,
      mix64(fingerprint ^ static_cast<std::uint64_t>(options.b_backend))};

  Dataset dataset;
  ThreadPool pool{options.threads};
  ThreadPoolMetrics pool_metrics;
  if (options.metrics != nullptr) pool.attach_metrics(&pool_metrics);

  const obs::TraceRecorder::Scoped pipeline_span{options.trace, "stream"};

  // Ground truth, rebuilt on every run: it costs less than decoding it.
  {
    const obs::TraceRecorder::Scoped span{options.trace, "stage.landscape",
                                          pipeline_span.id()};
    dataset.landscape = make_paper_landscape(options);
  }
  dataset.environment = make_paper_environment(dataset.landscape);

  // Sensor side, generated lazily and at most once: the full event
  // sequence is rebuilt only when some record is actually missing — no
  // cut restores, the cut leaves epochs to run, the WAL lacks a record
  // the cut covers, or the cut is declined. Recovery, replay and
  // apply_epoch never touch the injector, so whichever of those points
  // triggers generation, it starts from a fresh injector and every
  // fault counter comes out the same. `baseline` captures the injector
  // right afterwards; a cut's fault report already includes that share.
  // Generation hashes every download once; the digest then travels in
  // the WAL record, so replay never hashes.
  fault::FaultInjector injector{options.faults};
  fault::FaultInjector* faults =
      options.faults.pipeline_empty() ? nullptr : &injector;
  std::optional<honeypot::EventDatabase> gen_db;
  std::vector<bool> carriers;
  fault::FaultReport baseline;  // generation's counters, zero until it runs
  auto generated = [&]() -> const honeypot::EventDatabase& {
    if (!gen_db) {
      const obs::TraceRecorder::Scoped span{options.trace, "stream.generate",
                                            pipeline_span.id()};
      honeypot::Deployment deployment{
          dataset.landscape, make_paper_deployment_config(options, faults)};
      gen_db = deployment.run();
      baseline = injector.report();
      carriers = content_carriers(*gen_db);
    }
    return *gen_db;
  };

  // Collector side: recover the WAL, then resume from the newest epoch
  // cut. The two are independent durability layers — either may be
  // ahead of the other after a crash, and both gaps heal below.
  ingest::IngestReport report;
  ingest::WalOptions wal_options;
  wal_options.directory = stream.wal_dir;
  wal_options.segment_bytes = stream.segment_bytes;
  wal_options.fail_after_seal = stream.fail_after_seal;
  ingest::RecoveredWal recovered;
  {
    const obs::TraceRecorder::Scoped span{options.trace, "stream.recover",
                                          pipeline_span.id()};
    recovered = ingest::recover_wal(wal_options, fingerprint, report);
  }

  // The writer must size itself from the recovery result *before* the
  // records are moved out below — a moved-from list would reset its
  // next-record index to zero and every resume would re-append the
  // whole stream as duplicate frames.
  ingest::WalWriter writer{wal_options, fingerprint, recovered,
                           /*report=*/nullptr};

  // Generate up front when the replay or the epochs below will read a
  // record the WAL lacks; a cut covering the whole stream over a WAL
  // that holds it is restored from disk alone.
  std::optional<snapshot::EpochStage> restored = store.load_latest_epoch();
  if (!restored || restored->wal_records < restored->event_total ||
      writer.next_record_index() < restored->wal_records) {
    const std::uint64_t generated_total = generated().events().size();
    if (restored && restored->event_total != generated_total) {
      // A cut under this fingerprint cannot describe another stream:
      // decline it and replay from record 0 (never trust disk).
      store.decline_epoch(*restored);
      restored.reset();
    }
  }
  std::uint64_t total =
      restored ? restored->event_total : generated().events().size();

  // Unified record source: the recovered prefix as salvaged, encoded
  // fresh from the regenerated stream past it. Recovered payloads are
  // CRC-framed and fingerprint-checked, so both sources yield the same
  // bytes for the same index — which is also why a lost WAL never
  // strands a cut. A slot holds its record only until the record has
  // been replayed and is in the WAL: then it is freed, or moved into the
  // ingest queue. An empty slot (no record is empty) is encoded
  // again on demand, e.g. when a cut is declined after its prefix was
  // replayed.
  std::vector<std::vector<std::uint8_t>> records = std::move(recovered.records);
  records.resize(total);  // salvaged records past the stream are never read
  auto record_bytes =
      [&](std::uint64_t index) -> const std::vector<std::uint8_t>& {
    std::vector<std::uint8_t>& slot = records[static_cast<std::size_t>(index)];
    if (slot.empty()) {
      const honeypot::EventDatabase& stream_db = generated();
      slot = encode_record(stream_db.events()[index], carriers[index],
                           stream_db);
    }
    return slot;
  };
  // Moves a record out of its slot; dropping the result frees it.
  auto take = [&](std::uint64_t index) {
    return std::exchange(records[static_cast<std::size_t>(index)], {});
  };

  // Incremental clustering engines: counting state per EPM dimension,
  // recounted from the restored prefix below, plus the process-local
  // MinHash signature cache, which starts empty on every run.
  cluster::IncrementalEpm inc_e{cluster::Dimension::kEpsilon};
  cluster::IncrementalEpm inc_p{cluster::Dimension::kPi};
  cluster::IncrementalEpm inc_m{cluster::Dimension::kMu};
  cluster::SignatureStore signatures;

  std::uint64_t done = 0;  // records already replayed into `db`
  honeypot::EventDatabase db;
  if (restored) {
    // A cut holds no database: rebuild it by replaying the prefix the
    // cut covers. The cut's fault report and stream totals already
    // account for these records, so there is no delivery simulation
    // and nothing is appended here. The cut is trusted only once the
    // replay reproduced exactly its samples, its stream totals decoded
    // and the engines' recount agreed with its E/P/M results.
    for (std::uint64_t i = 0; i < restored->wal_records; ++i) {
      replay_record(record_bytes(i), db, stream.verify_incremental);
      // Records the WAL lacks stay held for the heal below.
      if (i < writer.next_record_index()) (void)take(i);
    }
    const auto prime = [&](const honeypot::EventDatabase& replayed) {
      ingest::IngestReport totals = report;
      ingest::decode_stream_totals(restored->ingest_blob, totals);
      const snapshot::EpmReclassified& reclassified =
          restored->epm_reclassified;
      inc_e.restore(replayed, restored->epm.e, reclassified[0]);
      inc_p.restore(replayed, restored->epm.p, reclassified[1]);
      inc_m.restore(replayed, restored->epm.m, reclassified[2]);
      report = totals;
    };
    if (!store.apply_epoch(*restored, db, prime)) {
      restored.reset();
      db = honeypot::EventDatabase{};
      // Priming may have stopped part-way: start every engine over.
      inc_e = cluster::IncrementalEpm{cluster::Dimension::kEpsilon};
      inc_p = cluster::IncrementalEpm{cluster::Dimension::kPi};
      inc_m = cluster::IncrementalEpm{cluster::Dimension::kMu};
      // The declined cut's event total is not trusted either.
      total = generated().events().size();
      records.resize(total);
    }
  }

  honeypot::EnrichmentStats enrich_totals;
  snapshot::EpmStage epm_stage;
  analysis::BehavioralView bview;
  bool have_results = false;
  if (restored) {
    done = restored->wal_records;
    enrich_totals = restored->enrichment;
    epm_stage = std::move(restored->epm);
    bview = std::move(restored->behavioral);
    have_results = true;
    report.epochs_restored = 1;
  }

  std::uint64_t appended_this_run = 0;
  ingest::BoundedRecordQueue queue{kQueueCapacity,
                                   ingest::OverflowPolicy::kBlock};
  auto drain_queue = [&] {
    while (auto rec = queue.try_pop()) {
      writer.append(*rec);
      ++appended_this_run;
      if (stream.after_append) stream.after_append(appended_this_run);
    }
  };

  // Heal a WAL that fell behind its checkpoint (crash after the cut was
  // durable but before the damaged tail segment was, or a quarantined
  // segment, or a WAL directory lost outright). The checkpoint already
  // covers these records' fault counters and the restore above already
  // replayed them, so they are re-appended verbatim — no delivery
  // simulation, no second replay.
  while (writer.next_record_index() < done) {
    const std::uint64_t i = writer.next_record_index();
    writer.append(record_bytes(i));
    (void)take(i);
    ++appended_this_run;
    if (stream.after_append) stream.after_append(appended_this_run);
  }

  // Every fault counter so far. A restored cut's report already holds
  // generation's share and that of the records it covers, so only what
  // this run did past generation is added to it.
  const auto faults_so_far = [&] {
    return restored ? fault::add(restored->fault_report,
                                 fault::subtract(injector.report(), baseline))
                    : injector.report();
  };
  std::uint64_t bytes_delta = 0;
  for (std::size_t k = 0; k < stream.epochs; ++k) {
    // Epoch boundaries are record counts, independent of the split a
    // previous (killed) run used.
    const std::uint64_t target =
        (static_cast<std::uint64_t>(k) + 1) * total /
        static_cast<std::uint64_t>(stream.epochs);
    const bool last = k + 1 == stream.epochs;
    // A cut at `target` records already exists (or the range is empty):
    // nothing to do — unless nothing at all has produced clustering
    // results yet (empty stream, no checkpoint), in which case the
    // final epoch still runs to compute them.
    if (target <= done && !(last && !have_results)) continue;

    const obs::TraceRecorder::Scoped epoch_span{options.trace, "stream.epoch",
                                                pipeline_span.id()};
    const std::size_t first_sample = db.samples().size();
    const honeypot::EventDatabase& stream_db = generated();
    {
      const obs::TraceRecorder::Scoped span{options.trace, "epoch.replay",
                                            epoch_span.id()};
      for (std::uint64_t i = done; i < target; ++i) {
        const std::vector<std::uint8_t>& rec = record_bytes(i);
        // Delivery simulation runs for every record past the last cut,
        // including records already in the WAL: the run that appended
        // those died before checkpointing its counters, and the
        // decisions are pure in (plan, key), so re-rolling them here
        // restores exactly the counts it lost.
        (void)ingest::deliver_record(stream.retry, i,
                                     stream_db.events()[i].time, injector);
        bytes_delta += rec.size() + ingest::kWalFrameHeaderBytes;
        replay_record(rec, db, stream.verify_incremental);
        std::vector<std::uint8_t> item = take(i);
        if (i < writer.next_record_index()) continue;
        // Fresh record: moved through the bounded queue into the WAL.
        // The queue is drained only when full, so backpressure
        // genuinely engages (and is counted) instead of the queue
        // idling at depth one. A rejected offer leaves `item` with us.
        if (!queue.offer(std::move(item))) {
          drain_queue();
          if (!queue.offer(std::move(item))) {
            throw IoError("ingest queue rejected a record after drain");
          }
        }
      }
      drain_queue();
      // Sealing syncs the epoch's frames: it must precede the cut.
      writer.seal();
    }

    // The delta past the previous cut is all that needs enriching;
    // per-sample purity makes the result identical to re-enriching
    // everything from scratch.
    {
      const obs::TraceRecorder::Scoped span{options.trace, "epoch.enrich",
                                            epoch_span.id()};
      accumulate(enrich_totals,
                 honeypot::enrich_database(db, dataset.landscape,
                                           dataset.environment, faults, &pool,
                                           first_sample));
    }

    // Epoch clustering: the EPM engines absorb the epoch's event delta
    // into their counting state and re-generalize only
    // flip-affected rows, and B reuses cached MinHash signatures for
    // the unchanged profile prefix — byte-identical to the full
    // recompute, which verify mode runs beside it (the cost pair the
    // ABL-10 streaming ablation measures).
    {
      const obs::TraceRecorder::Scoped cluster_span{
          options.trace, "epoch.cluster", epoch_span.id()};
      // The previous epoch's B partition (restored from the cut on warm
      // resume) stays in `bview` until the new one replaces it. Its E/P/M
      // results are dropped first: the engines keep their own state, and
      // holding both generations would only raise the peak.
      epm_stage = {};
      const IncrementalClustering engines{inc_e, inc_p, inc_m, signatures,
                                          bview.clusters().assignment};
      EpochClusters clusters =
          cluster_epoch(db, options, pool, cluster_span.id(), &engines);
      epm_stage = std::move(clusters.epm);
      bview = std::move(clusters.b);
    }

    if (stream.verify_incremental) {
      // Cross-check: run the full recompute as a second batch (so the
      // two B passes never nest parallel_for concurrently) and diff the
      // serialized bytes of every result.
      EpochClusters full;
      {
        const obs::TraceRecorder::Scoped verify_span{
            options.trace, "epoch.verify", epoch_span.id()};
        full = cluster_epoch(db, options, pool, verify_span.id());
      }
      const auto mismatch = [&](const char* dimension) {
        throw ConfigError(
            "verify-incremental: " + std::string{dimension} +
            " bytes diverge from the full recompute at epoch " +
            std::to_string(k));
      };
      if (epm_bytes(epm_stage.e) != epm_bytes(full.epm.e)) mismatch("epsilon");
      if (epm_bytes(epm_stage.p) != epm_bytes(full.epm.p)) mismatch("pi");
      if (epm_bytes(epm_stage.m) != epm_bytes(full.epm.m)) mismatch("mu");
      if (bview_bytes(bview) != bview_bytes(full.b)) mismatch("behavioral");
      ++report.epochs_verified;
    }
    have_results = true;

    // Cut the epoch: state + the cumulative fault report + stream
    // totals, all in one durable snapshot. The totals are recomputed
    // from the record sequence (not from what this process happened to
    // append), so they are identical however many times the run was
    // killed on the way here.
    const fault::FaultReport fault_report = faults_so_far();
    ++report.epochs_run;
    report.records_appended = target;
    report.bytes_appended += bytes_delta;
    bytes_delta = 0;
    report.segments_sealed = writer.segment_index() - 1;

    const std::vector<std::uint8_t> ingest_blob =
        ingest::encode_stream_totals(report);
    {
      const obs::TraceRecorder::Scoped span{options.trace, "epoch.checkpoint",
                                            epoch_span.id()};
      store.save_epoch(snapshot::EpochCut{.epoch = k,
                                          .wal_records = target,
                                          .event_total = total,
                                          .db = db,
                                          .enrichment = enrich_totals,
                                          .fault_report = fault_report,
                                          .epm = epm_stage,
                                          .behavioral = bview,
                                          .ingest_blob = ingest_blob,
                                          .epm_reclassified = {
                                              inc_e.instances_reclassified(),
                                              inc_p.instances_reclassified(),
                                              inc_m.instances_reclassified()}});
    }
    // The hook sees the 1-based count of durable epochs so a view built
    // here for the final epoch carries the same epoch number as one built
    // from the finished dataset (the fully-restored-resume fallback).
    if (stream.on_epoch) stream.on_epoch(db, epm_stage, bview, k + 1);
    done = target;
  }

  dataset.db = std::move(db);
  dataset.enrichment = enrich_totals;
  dataset.fault_report = faults_so_far();
  dataset.e = std::move(epm_stage.e);
  dataset.p = std::move(epm_stage.p);
  dataset.m = std::move(epm_stage.m);
  dataset.b = std::move(bview);
  dataset.checkpoint_activity = store.activity();

  const ingest::BoundedRecordQueue::Stats queue_stats = queue.stats();
  report.queue_pushed = queue_stats.pushed;
  report.queue_shed = queue_stats.shed;
  report.queue_stalls = queue_stats.stalls;
  report.queue_high_water = queue_stats.high_water;
  dataset.ingest = report;

  if (options.metrics != nullptr) {
    publish_dataset_metrics(*options.metrics, dataset);
    ingest::publish_ingest_metrics(*options.metrics, report);
    // The reclassification total is a pure function of the record
    // sequence and the epoch split, so it is width-stable and
    // kill-invariant (a resumed run restores it from the cut instead of
    // re-earning it). Signature reuse counts this process's cache hits
    // only — a resumed run starts with an empty cache — so it is runtime
    // telemetry.
    obs::add_counter(options.metrics, "epm.instances_reclassified",
                     inc_e.instances_reclassified() +
                         inc_p.instances_reclassified() +
                         inc_m.instances_reclassified());
    obs::add_counter(options.metrics, "cluster.signatures_reused",
                     signatures.reused, obs::Channel::kRuntime);
    // Zero on a resume whose WAL and cut already hold every record, the
    // stream's event count whenever generation ran: per-process, so
    // runtime telemetry.
    obs::add_counter(options.metrics, "stream.events_generated",
                     gen_db ? gen_db->events().size() : 0,
                     obs::Channel::kRuntime);
    publish_pool_metrics(*options.metrics, pool, pool_metrics);
  }
  return dataset;
}

}  // namespace repro::scenario
