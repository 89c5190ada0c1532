// Deterministic fault planning for the SGNET pipeline.
//
// The paper's most interesting findings are driven by infrastructure
// failures: Nepenthes download truncation produces the 6353-collected
// vs 5165-analyzable gap, and sandbox environment changes produce the
// singleton B-cluster anomalies. A FaultPlan extends that single
// failure mode into a schedulable failure model for every pipeline
// stage: sensor outage windows, gateway->sample-factory proxy failures,
// download refusals and bit corruption, sandbox crashes and AV-label
// gaps. Plans are plain data; the FaultInjector turns them into
// deterministic per-decision outcomes.
#pragma once

#include <cstdint>
#include <vector>

namespace repro::fault {

/// One scheduled sensor blackout: the honeypots of `location` record
/// nothing during weeks [from_week, to_week) of the observation window.
struct SensorOutage {
  int location = 0;
  int from_week = 0;
  int to_week = 0;  // exclusive
};

/// Per-component fault probabilities plus scheduled outage windows.
/// A default-constructed plan is empty: no component ever fails and the
/// pipeline output is bit-identical to a run without any injector.
struct FaultPlan {
  /// Individuates the injector's decision streams; two plans with the
  /// same probabilities but different seeds fail different events.
  std::uint64_t seed = 0;

  /// Scheduled sensor blackouts (a honeypot IP records nothing).
  std::vector<SensorOutage> sensor_outages;

  /// Gateway -> sample-factory proxy channel: each delivery attempt of
  /// a proxied conversation fails with this probability; the gateway
  /// retries up to `proxy_max_retries` times with exponential backoff
  /// before abandoning the refinement.
  double proxy_failure_probability = 0.0;
  int proxy_max_retries = 2;
  int proxy_backoff_base_seconds = 2;

  /// Download failures beyond the Nepenthes truncation model: the
  /// transfer is refused outright (no sample collected) or the bytes
  /// arrive bit-corrupted (the PE image no longer parses).
  double download_refused_probability = 0.0;
  double download_corruption_probability = 0.0;

  /// Sandbox timeout/crash: the submission produces no profile; the
  /// sample stays unenriched until the healing path retries it.
  double sandbox_failure_probability = 0.0;

  /// AV labeler gap: the sample gets no label at all.
  double av_label_gap_probability = 0.0;

  /// Streaming ingest: one sensor-to-collector delivery attempt of a
  /// WAL record fails with this probability; the ingest layer retries
  /// under its own backoff policy (see src/ingest/delivery).
  double ingest_failure_probability = 0.0;

  /// Serving faults (src/serve): hostile/broken analyst clients and a
  /// flaky accept path. These never touch the dataset — they degrade
  /// only the query surface — so they are excluded from the scenario
  /// fingerprint and from pipeline_empty().
  /// A client stalls mid-request; the stall is charged against the
  /// request deadline and typically surfaces as a typed TIMEOUT reply.
  double serve_slow_client_probability = 0.0;
  /// A client vanishes mid-request; the reply write fails and the
  /// server must drop the connection without disturbing its neighbors.
  double serve_disconnect_probability = 0.0;
  /// One accept() of an incoming connection fails; the listener must
  /// shrug and keep accepting.
  double serve_accept_failure_probability = 0.0;

  /// True when `location`'s sensors are dark during `week`. A pure
  /// query: FaultInjector::sensor_down is the counting decision, and
  /// this lets the deployment count the events a schedule will yield
  /// without recording any decision.
  [[nodiscard]] bool sensor_down(int location, int week) const noexcept;

  /// True when the plan can never fire a fault at any site.
  [[nodiscard]] bool empty() const noexcept;

  /// True when no *pipeline* site (sensors, proxy, downloads, sandbox,
  /// AV labels, ingest delivery) can fire — the serve knobs are
  /// deliberately ignored. This is the gate for attaching an injector
  /// to the dataset-shaping pipeline: a serve-only plan must leave the
  /// dataset and its deterministic metrics bit-identical to a run with
  /// no injector at all.
  [[nodiscard]] bool pipeline_empty() const noexcept;

  /// Throws ConfigError on out-of-range probabilities, negative retry
  /// bounds or inverted outage windows.
  void validate() const;

  /// Returns a copy with every probability multiplied by `factor`
  /// (clamped to 1) and outage windows preserved.
  [[nodiscard]] FaultPlan scaled(double factor) const;

  /// The failure rates we calibrate against the paper's artifacts:
  /// small, realistic rates for every stage the paper reports failures
  /// for (download modules, sandbox runs) or that real deployments
  /// face (sensor outages, proxy channels, label coverage).
  [[nodiscard]] static FaultPlan paper_calibrated();

  /// A random plan for chaos sweeps: probabilities, retry bounds and
  /// outage windows all drawn from `seed`. `weeks`/`locations` bound
  /// the outage windows to the deployment's geometry.
  [[nodiscard]] static FaultPlan random_plan(std::uint64_t seed, int weeks,
                                             int locations);
};

}  // namespace repro::fault
