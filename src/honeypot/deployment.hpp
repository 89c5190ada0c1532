// The distributed deployment driver.
//
// Simulates the SGNET deployment of the paper: 150 honeypot IPs spread
// over 30 network locations, observing the landscape's infected
// populations from January 2008 to May 2009. Every attack runs through
// the full pipeline — exploit dialog synthesis, FSM matching or
// sample-factory proxying, shellcode extraction and analysis, download
// emulation — and comes out one recorded event at a time, exactly as
// the sensors would log it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "fault/injector.hpp"
#include "honeypot/database.hpp"
#include "honeypot/download.hpp"
#include "honeypot/gateway.hpp"
#include "malware/landscape.hpp"
#include "net/ipv4.hpp"
#include "util/md5.hpp"
#include "util/rng.hpp"

namespace repro::honeypot {

struct DeploymentConfig {
  /// 30 network locations x 5 addresses = the paper's 150 monitored IPs.
  int location_count = 30;
  int honeypots_per_location = 5;
  std::uint64_t seed = 1;
  DownloadOptions download;
  proto::IncrementalFsm::Options fsm;
  /// Optional fault injection: sensor outages, proxy-channel failures
  /// and extended download faults fire per its plan. The injector's
  /// decisions never consume the deployment's own RNG streams, so a
  /// nullptr injector and an injector with an empty plan produce
  /// bit-identical datasets. Not owned; must outlive the deployment.
  fault::FaultInjector* faults = nullptr;
};

/// One attack the sensors recorded, as the sensor stream hands it on.
struct GeneratedRecord {
  /// The event; `event.sample` is the sample's id, dense in first-seen
  /// order (the id an EventDatabase fed this stream assigns it).
  AttackEvent event;
  /// The sample's MD5, when `event.sample` is set.
  Md5Digest md5{};
  /// True at the first event of its sample. Only then are the bytes and
  /// the flags carried: a later event of the sample carries its digest.
  bool new_sample = false;
  std::vector<std::uint8_t> content;
  bool truncated = false;
  bool corrupted = false;
};

/// The deployment is a pull source over the observation window. The
/// first call to event_total() or next() realizes the infected
/// populations and schedules every week's attacks (a few bytes per
/// attack; the populations are dropped again). When next() finds no
/// record simulated ahead, it runs the next scheduled attacks through
/// the pipeline until sensors have recorded up to kLookAhead of them or
/// the caller's horizon is reached, hashes their downloads in one
/// Md5::digest_many call and numbers the samples in record order. No
/// digest feeds back into the simulation, so the records are the same
/// however many are simulated at a time. Nothing of an event is kept
/// once it is returned, only the simulation state that carries across
/// attacks (the gateway's FSM models, the driver RNG, the download
/// nonce) and an MD5 -> id index.
class Deployment {
 public:
  /// Records simulated ahead of the one returned, at most.
  static constexpr std::size_t kLookAhead = 8;
  /// next() without a horizon.
  static constexpr std::uint64_t kNoHorizon =
      std::numeric_limits<std::uint64_t>::max();

  Deployment(const malware::Landscape& landscape, DeploymentConfig config);

  /// Events the whole window records: the scheduled attacks that no
  /// sensor outage hides. Counted from the schedule with the plan's
  /// pure outage query, so no attack is simulated and no fault decision
  /// is counted.
  [[nodiscard]] std::uint64_t event_total();

  /// The next recorded event; nullopt once the window is exhausted.
  /// Simulation never reaches a record at index `horizon` or past it,
  /// which must lie beyond pulled(): a caller working toward a cut at n
  /// records passes n, and its fault counters then hold exactly those
  /// of records [0, n) once they are pulled. The outage decisions of
  /// the attacks skipped on the way are counted as they are passed, so
  /// the call that returns nullopt counts those after the last event.
  [[nodiscard]] std::optional<GeneratedRecord> next(
      std::uint64_t horizon = kNoHorizon);

  /// Events next() has returned so far.
  [[nodiscard]] std::uint64_t pulled() const noexcept { return pulled_; }

  /// Runs the whole window into `db`; appends each new sample's bytes
  /// to `contents` when given, so `contents[id]` holds sample `id`'s.
  /// Throws ConfigError once next() has been called or when `db`
  /// already holds a sample: the records' sample ids count from the
  /// window's first event and from an empty database.
  void drain_into(EventDatabase& db,
                  std::vector<std::vector<std::uint8_t>>* contents = nullptr);

  [[nodiscard]] const std::vector<net::Ipv4>& honeypots() const noexcept {
    return honeypots_;
  }
  [[nodiscard]] int location_of(std::size_t honeypot_index) const noexcept {
    return static_cast<int>(honeypot_index) /
           config_.honeypots_per_location;
  }
  [[nodiscard]] const Gateway& gateway() const noexcept { return gateway_; }

 private:
  /// One attack scheduled for a given instant, before pipeline
  /// processing.
  struct PendingAttack {
    SimTime time{};
    malware::VariantId variant = 0;
    net::Ipv4 attacker;
    std::uint32_t honeypot_index = 0;
    int week = 0;

    /// Chronological processing order within a week (the gateway's
    /// model maturity depends on it).
    friend bool operator<(const PendingAttack& a, const PendingAttack& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.variant != b.variant) return a.variant < b.variant;
      return a.attacker < b.attacker;
    }
  };

  /// Schedules the whole window into `schedule_` (first use only).
  void schedule();
  /// Refills `ahead_` with the next recorded events below `horizon`.
  void simulate_ahead(std::uint64_t horizon);
  /// Runs one scheduled attack through the pipeline into `record`;
  /// true when it downloaded a sample, whose bytes are then in
  /// `record.content` and whose digest and id are not assigned yet.
  bool simulate(const PendingAttack& attack, GeneratedRecord& record);

  const malware::Landscape* landscape_;
  DeploymentConfig config_;
  Gateway gateway_;
  std::vector<net::Ipv4> honeypots_;

  bool scheduled_ = false;
  std::vector<PendingAttack> schedule_;
  std::size_t cursor_ = 0;  // next attack of schedule_ to process
  std::uint64_t pulled_ = 0;
  std::vector<GeneratedRecord> ahead_;  // simulated, not yet returned
  std::size_t ahead_next_ = 0;          // next of ahead_ to return
  std::uint64_t nonce_ = 0;  // one per processed attack
  Rng driver_rng_;
  std::map<Md5Digest, SampleId> sample_ids_;
};

}  // namespace repro::honeypot
