#include "scenario/stream.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cluster/incremental.hpp"
#include "cluster/minhash.hpp"
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

  // Sensor side: one pull source, consulted only when some record is
  // missing or epochs are left to run. It yields record i on its i-th
  // pull, so pulls are strictly in index order: a run that needs record
  // n fast-forwards the source through [0, n) first. Its fault counters
  // accrue as records are simulated, up to eight ahead of the pull, but
  // every pull passes the boundary it works toward as the source's
  // horizon, so no record at or past a cut is simulated before the cut:
  // a cut at n records carries the counters of pulls [0, n) (of the
  // whole source, drained, once n is the event total). Recovery, replay
  // and apply_epoch never touch the injector, so a cut's counters plus
  // what this run's injector gathers past the point the source was
  // fast-forwarded to (`baseline`) are the uninterrupted stream's.
  std::optional<fault::FaultInjector> injector{std::in_place,
                                               options.faults};
  fault::FaultInjector* faults =
      options.faults.pipeline_empty() ? nullptr : &*injector;
  std::optional<honeypot::Deployment> source;  // built on first use
  std::uint64_t events_generated = 0;  // pulls this process made
  const auto sensors = [&]() -> honeypot::Deployment& {
    if (!source) {
      source.emplace(dataset.landscape,
                     make_paper_deployment_config(options, faults));
    }
    return *source;
  };
  // The source's next record; nothing at or past `horizon` is simulated.
  const auto pull = [&](obs::TraceRecorder::SpanId parent,
                        std::uint64_t horizon) {
    const obs::TraceRecorder::Scoped span{options.trace, "stream.generate",
                                          parent};
    std::optional<honeypot::GeneratedRecord> record =
        sensors().next(horizon);
    if (!record) {
      throw ConfigError("stream: the sensors ended before the event total");
    }
    ++events_generated;
    return std::move(*record);
  };
  // Pulls and drops records until the source stands at record `n`.
  const auto fast_forward = [&](std::uint64_t n) {
    const obs::TraceRecorder::Scoped span{options.trace, "stream.generate",
                                          pipeline_span.id()};
    while (sensors().pulled() < n) (void)pull(span.id(), n);
  };
  // Passes the outage checks past the last event, which only the call
  // that finds the window exhausted counts.
  const auto drain_sensors = [&](obs::TraceRecorder::SpanId parent) {
    const obs::TraceRecorder::Scoped span{options.trace, "stream.generate",
                                          parent};
    if (sensors().next()) {
      throw ConfigError("stream: the sensors outran the event total");
    }
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

  ingest::WalWriter writer{wal_options, fingerprint, recovered,
                           /*report=*/nullptr};

  // Record i is read back from the WAL below the recovered count and
  // pulled from the sensors past it. Recovered payloads are CRC-framed
  // and fingerprint-checked (and checked again as they are read), so
  // both sources yield the same bytes for the same index — which is also
  // why a lost WAL never strands a cut. Neither holds more than the
  // record in hand: a WAL record lives in the reader's window, a pulled
  // one is encoded, replayed and appended.
  const std::uint64_t recovered_count = recovered.record_count;
  ingest::WalReader wal{recovered.records};

  // A cut under this fingerprint cannot describe another stream: when
  // the sensors are needed, a cut whose event total the schedule
  // contradicts is declined and the run replays from record 0 (never
  // trust disk). A cut covering the whole stream over a WAL that holds
  // it is restored from disk alone.
  std::optional<snapshot::EpochStage> restored = store.load_latest_epoch();
  if (restored &&
      (restored->wal_records < restored->event_total ||
       recovered_count < restored->wal_records) &&
      restored->event_total != sensors().event_total()) {
    store.decline_epoch(*restored);
    restored.reset();
  }
  std::uint64_t total =
      restored ? restored->event_total : sensors().event_total();

  // Incremental clustering engines: counting state per EPM dimension,
  // recounted from the restored prefix below, plus B's process-local
  // LSH linkage, which the first epoch this run clusters builds over
  // every profile the database holds by then.
  cluster::IncrementalEpm inc_e{cluster::Dimension::kEpsilon};
  cluster::IncrementalEpm inc_p{cluster::Dimension::kPi};
  cluster::IncrementalEpm inc_m{cluster::Dimension::kMu};
  std::optional<cluster::LshLinkage> b_linkage;

  std::uint64_t appended_this_run = 0;
  const auto count_append = [&] {
    ++appended_this_run;
    if (stream.after_append) stream.after_append(appended_this_run);
  };

  std::uint64_t done = 0;  // records already replayed into `db`
  honeypot::EventDatabase db;
  if (restored) {
    // A cut holds no database: rebuild it by replaying the prefix the
    // cut covers. The cut's fault report and stream totals already
    // account for these records, so there is no delivery simulation.
    // A record the WAL lacks (a crash after the cut was durable but
    // before the damaged tail segment was, a quarantined segment, or a
    // WAL directory lost outright) is pulled from the sensors, which
    // fast-forward to it, and appended as it is replayed. The cut is
    // trusted only once the replay reproduced exactly its samples, its
    // stream totals decoded and the engines' recount agreed with its
    // E/P/M results.
    for (std::uint64_t i = 0; i < restored->wal_records; ++i) {
      if (i < recovered_count) {
        replay_record(wal.read(i), db, stream.verify_incremental);
        continue;
      }
      fast_forward(i);
      const std::vector<std::uint8_t> healed =
          encode_record(pull(pipeline_span.id(), restored->wal_records));
      replay_record(healed, db, stream.verify_incremental);
      writer.append(healed);
      count_append();
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
      // Healing may have pulled records whose counters no cut holds
      // now: the sensor side starts over at record 0.
      if (source) {
        source.reset();
        injector.emplace(options.faults);
      }
      // The declined cut's event total is not trusted either.
      total = sensors().event_total();
    }
  }
  // Records the WAL holds by now; the loop below appends past them.
  const std::uint64_t logged = writer.next_record_index();

  honeypot::EnrichmentStats enrich_totals;
  snapshot::EpmStage epm_stage;
  analysis::BehavioralView bview;
  bool have_results = false;
  fault::FaultReport baseline;  // counters the restored cut already holds
  if (restored) {
    done = restored->wal_records;
    enrich_totals = restored->enrichment;
    epm_stage = std::move(restored->epm);
    bview = std::move(restored->behavioral);
    have_results = true;
    report.epochs_restored = 1;
    // Bring the sensors to the cut's point when they run at all: the cut
    // leaves records to pull, or healing has already started them.
    if (done < total || source) {
      fast_forward(done);
      if (done == total) drain_sensors(pipeline_span.id());
    }
    baseline = injector->report();
  }

  // Every fault counter so far. A restored cut's report already holds
  // the counters up to its point, so only what this run did past it is
  // added.
  const auto faults_so_far = [&] {
    return restored ? fault::add(restored->fault_report,
                                 fault::subtract(injector->report(), baseline))
                    : injector->report();
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
    {
      const obs::TraceRecorder::Scoped span{options.trace, "epoch.replay",
                                            epoch_span.id()};
      for (std::uint64_t i = done; i < target; ++i) {
        // Every record past the last cut is pulled, so the sensors'
        // counters reach the cut; the WAL's copy is used where it has
        // one.
        honeypot::GeneratedRecord pulled = pull(span.id(), target);
        std::vector<std::uint8_t> fresh;
        std::span<const std::uint8_t> rec;
        if (i < recovered_count) {
          rec = wal.read(i);
        } else {
          fresh = encode_record(pulled);
          rec = fresh;
        }
        bytes_delta += rec.size() + ingest::kWalFrameHeaderBytes;
        replay_record(rec, db, stream.verify_incremental);
        // Delivery simulation runs for every record past the last cut,
        // including records already in the WAL: the run that appended
        // those died before checkpointing its counters, and the
        // decisions are pure in (plan, key), so re-rolling them here
        // restores exactly the counts it lost.
        (void)ingest::deliver_record(stream.retry, i, db.events().back().time,
                                     *injector);
        if (i < logged) continue;
        writer.append(rec);
        count_append();
      }
      // Sealing syncs the epoch's frames: it must precede the cut.
      writer.seal();
    }
    // The final cut covers the whole source, including the outage
    // checks past the last event.
    if (last) drain_sensors(epoch_span.id());

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
    // flip-affected rows, and an LSH B files only the epoch's new
    // duplicate classes into its linkage — byte-identical to the full
    // recompute, which verify mode runs beside it (the cost pair the
    // ABL-10 streaming ablation measures).
    {
      const obs::TraceRecorder::Scoped cluster_span{
          options.trace, "epoch.cluster", epoch_span.id()};
      // The previous epoch's results are dropped first: the engines
      // keep their own state, and holding both generations would only
      // raise the peak.
      epm_stage = {};
      bview = {};
      const IncrementalClustering engines{inc_e, inc_p, inc_m, b_linkage};
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
  // Healing may have appended records below a restored cut that no
  // epoch ran past. The cut covers them, so they are synced too.
  writer.seal();

  dataset.db = std::move(db);
  dataset.enrichment = enrich_totals;
  dataset.fault_report = faults_so_far();
  dataset.e = std::move(epm_stage.e);
  dataset.p = std::move(epm_stage.p);
  dataset.m = std::move(epm_stage.m);
  dataset.b = std::move(bview);
  dataset.checkpoint_activity = store.activity();

  dataset.ingest = report;

  if (options.metrics != nullptr) {
    publish_dataset_metrics(*options.metrics, dataset);
    ingest::publish_ingest_metrics(*options.metrics, report);
    // The reclassification total is a pure function of the record
    // sequence and the epoch split, so it is width-stable and
    // kill-invariant (a resumed run restores it from the cut instead of
    // re-earning it).
    obs::add_counter(options.metrics, "epm.instances_reclassified",
                     inc_e.instances_reclassified() +
                         inc_p.instances_reclassified() +
                         inc_m.instances_reclassified());
    // Records this process pulled from the sensors, fast-forwards
    // included: zero on a resume whose WAL and cut already hold every
    // record. Per-process, so runtime telemetry.
    obs::add_counter(options.metrics, "stream.events_generated",
                     events_generated, obs::Channel::kRuntime);
    publish_pool_metrics(*options.metrics, pool, pool_metrics);
  }
  return dataset;
}

}  // namespace repro::scenario
