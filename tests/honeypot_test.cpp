// Unit tests for the honeypot module: event database, gateway
// life-cycle, AV labels, download failure model, deployment driver and
// enrichment pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "honeypot/avlabels.hpp"
#include "honeypot/database.hpp"
#include "honeypot/deployment.hpp"
#include "honeypot/download.hpp"
#include "honeypot/enrichment.hpp"
#include "honeypot/gateway.hpp"
#include "malware/binary.hpp"
#include "shellcode/builder.hpp"
#include "fault/injector.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/md5.hpp"

namespace repro::honeypot {
namespace {

// ---------------------------------------------------------------- database

TEST(Database, DeduplicatesByMd5) {
  EventDatabase db;
  const std::vector<std::uint8_t> content{1, 2, 3};
  const SampleId a = db.add_sample(content, SimTime{100}, false, 0);
  const SampleId b = db.add_sample(content, SimTime{50}, false, 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(db.samples().size(), 1u);
  EXPECT_EQ(db.sample(a).event_count, 2u);
  EXPECT_EQ(db.sample(a).first_seen, SimTime{50});  // earliest wins
}

TEST(Database, DistinctContentDistinctSamples) {
  EventDatabase db;
  const SampleId a =
      db.add_sample(std::vector<std::uint8_t>{1, 2, 3}, SimTime{1}, false, 0);
  const SampleId b =
      db.add_sample(std::vector<std::uint8_t>{1, 2, 4}, SimTime{1}, false, 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(db.samples().size(), 2u);
}

TEST(Database, Md5IndexFindsSamples) {
  EventDatabase db;
  const std::vector<std::uint8_t> content{9, 9};
  const SampleId id = db.add_sample(content, SimTime{1}, false, 0);
  EXPECT_EQ(db.find_by_md5(Md5::hex_digest(content)), id);
  EXPECT_FALSE(db.find_by_md5("not-a-hash").has_value());
}

TEST(Database, EventIdsAreSequential) {
  EventDatabase db;
  AttackEvent e1;
  AttackEvent e2;
  EXPECT_EQ(db.add_event(std::move(e1)), 0u);
  EXPECT_EQ(db.add_event(std::move(e2)), 1u);
}

TEST(Database, EventsOfSample) {
  EventDatabase db;
  const SampleId sample =
      db.add_sample(std::vector<std::uint8_t>{1}, SimTime{1}, false, 0);
  AttackEvent with;
  with.sample = sample;
  AttackEvent without;
  db.add_event(std::move(with));
  db.add_event(std::move(without));
  EXPECT_EQ(db.events_of_sample(sample), (std::vector<EventId>{0}));
}

TEST(Database, UnknownSampleThrows) {
  EventDatabase db;
  EXPECT_THROW((void)db.sample(5), ConfigError);
  EXPECT_THROW((void)db.sample_mutable(5), ConfigError);
}

// ----------------------------------------------------------------- gateway

TEST(Gateway, ProxyThenMatureLifecycle) {
  Rng rng{1};
  const auto tmpl = proto::make_exploit_template(proto::ServiceKind::kSmb445,
                                                 0);
  const auto loc = proto::payload_location(tmpl);
  proto::IncrementalFsm::Options options;
  options.maturity = 3;
  Gateway gateway{options};

  const auto attack = [&] {
    return proto::synthesize_attack(
        tmpl, proto::to_bytes("PAYLOAD" + rng.alnum(10)),
        net::Ipv4{static_cast<std::uint32_t>(rng.next())},
        net::Ipv4{10, 0, 0, 1}, rng);
  };

  // First three conversations are proxied (unknown-path markers).
  std::set<std::string> unknown_paths;
  for (int i = 0; i < 3; ++i) {
    const auto outcome = gateway.handle(attack(), loc);
    EXPECT_TRUE(outcome.proxied);
    EXPECT_EQ(outcome.fsm_path.rfind("unknown/", 0), 0u);
    unknown_paths.insert(outcome.fsm_path);
  }
  // Unknown markers are event-unique (never become invariants).
  EXPECT_EQ(unknown_paths.size(), 3u);
  EXPECT_EQ(gateway.proxied_count(), 3u);

  // After maturity the same activity is handled autonomously with one
  // stable path id.
  const auto first = gateway.handle(attack(), loc);
  EXPECT_FALSE(first.proxied);
  for (int i = 0; i < 5; ++i) {
    const auto outcome = gateway.handle(attack(), loc);
    EXPECT_FALSE(outcome.proxied);
    EXPECT_EQ(outcome.fsm_path, first.fsm_path);
  }
  EXPECT_EQ(gateway.matched_count(), 6u);
  EXPECT_GT(gateway.mature_transitions(), 0u);
}

TEST(Gateway, SeparateModelsPerPort) {
  Rng rng{2};
  Gateway gateway;
  const auto smb = proto::make_exploit_template(proto::ServiceKind::kSmb445, 0);
  const auto rpc =
      proto::make_exploit_template(proto::ServiceKind::kDceRpc135, 0);
  for (int i = 0; i < 4; ++i) {
    gateway.handle(
        proto::synthesize_attack(smb, proto::to_bytes("X"),
                                 net::Ipv4{1, 2, 3, static_cast<std::uint8_t>(i)},
                                 net::Ipv4{10, 0, 0, 1}, rng),
        proto::payload_location(smb));
  }
  // The 135 model knows nothing yet: proxied.
  const auto outcome = gateway.handle(
      proto::synthesize_attack(rpc, proto::to_bytes("X"),
                               net::Ipv4{9, 9, 9, 9}, net::Ipv4{10, 0, 0, 1},
                               rng),
      proto::payload_location(rpc));
  EXPECT_TRUE(outcome.proxied);
}

// --------------------------------------------------------------- AV labels

TEST(AvLabels, DeterministicPerMd5) {
  malware::MalwareVariant variant;
  variant.av_name = "W32.Rahack.A";
  EXPECT_EQ(assign_av_label(variant, "abc", false),
            assign_av_label(variant, "abc", false));
}

TEST(AvLabels, MostlyGroundTruthWithNoise) {
  malware::MalwareVariant variant;
  variant.av_name = "W32.Rahack.A";
  int truth = 0;
  int other = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string label =
        assign_av_label(variant, "md5-" + std::to_string(i), false);
    if (label == "W32.Rahack.A") {
      ++truth;
    } else {
      ++other;
    }
  }
  EXPECT_GT(truth, 1500);
  EXPECT_GT(other, 50);  // realistic AV-label inconsistency exists
}

TEST(AvLabels, TruncatedSamplesMarkedCorrupted) {
  malware::MalwareVariant variant;
  variant.av_name = "X";
  EXPECT_EQ(assign_av_label(variant, "m", true), "(corrupted)");
}

// ---------------------------------------------------------------- download

TEST(Download, NeverTruncatesAtZeroProbability) {
  Rng rng{3};
  DownloadOptions options;
  options.truncation_probability = 0.0;
  const std::vector<std::uint8_t> binary(5000, 1);
  for (int i = 0; i < 20; ++i) {
    const auto result = emulate_download(binary, options, rng);
    EXPECT_FALSE(result.truncated);
    EXPECT_EQ(result.content.size(), binary.size());
  }
}

TEST(Download, AlwaysTruncatesAtOne) {
  Rng rng{4};
  DownloadOptions options;
  options.truncation_probability = 1.0;
  options.min_kept_bytes = 256;
  const std::vector<std::uint8_t> binary(5000, 1);
  for (int i = 0; i < 50; ++i) {
    const auto result = emulate_download(binary, options, rng);
    EXPECT_TRUE(result.truncated);
    EXPECT_LT(result.content.size(), binary.size());
    EXPECT_GE(result.content.size(), 256u);
    // Content is a strict prefix.
    EXPECT_TRUE(std::equal(result.content.begin(), result.content.end(),
                           binary.begin()));
  }
}

TEST(Download, RateApproximatesProbability) {
  Rng rng{5};
  DownloadOptions options;
  options.truncation_probability = 0.25;
  const std::vector<std::uint8_t> binary(2000, 1);
  int truncated = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    truncated += emulate_download(binary, options, rng).truncated ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(truncated) / trials, 0.25, 0.03);
}

// -------------------------------------------------------------- deployment

malware::Landscape tiny_landscape() {
  malware::Landscape landscape;
  landscape.start_time = parse_date("2008-01-01");
  landscape.weeks = 8;
  landscape.exploits.push_back(
      proto::make_exploit_template(proto::ServiceKind::kSmb445, 0));
  landscape.exploits.push_back(
      proto::make_exploit_template(proto::ServiceKind::kDceRpc135, 0));
  malware::PayloadSpec bind;
  landscape.payloads.push_back(bind);
  malware::PayloadSpec http;
  http.protocol = shellcode::Protocol::kHttp;
  http.port = 80;
  http.filename = "update.exe";
  landscape.payloads.push_back(http);

  malware::MalwareFamily family;
  family.id = 0;
  family.name = "fam";
  landscape.families.push_back(family);

  for (int v = 0; v < 2; ++v) {
    malware::MalwareVariant variant;
    variant.id = static_cast<malware::VariantId>(v);
    variant.family = 0;
    variant.name = "v" + std::to_string(v);
    variant.av_name = "Test.AV." + std::to_string(v);
    variant.seed = 100 + static_cast<std::uint64_t>(v);
    variant.polymorphism = v == 0 ? malware::PolymorphismMode::kPerInstance
                                  : malware::PolymorphismMode::kNone;
    malware::PeShape shape;
    shape.target_file_size = 8192;
    variant.pe_template = malware::make_pe_template(shape, variant.seed);
    variant.mutable_sections =
        malware::mutable_section_indices(variant.pe_template);
    variant.behavior.base_features = {"f" + std::to_string(v)};
    variant.exploit_index = static_cast<std::size_t>(v);
    variant.payload_index = static_cast<std::size_t>(v);
    variant.population.host_count = 30;
    variant.schedule.kind = malware::ActivitySchedule::Kind::kContinuous;
    variant.schedule.start_week = 0;
    variant.schedule.end_week = 8;
    variant.schedule.weekly_event_rate = 12.0;
    variant.schedule.seed = variant.seed;
    landscape.families[0].variants.push_back(variant.id);
    landscape.variants.push_back(std::move(variant));
  }
  return landscape;
}

/// The whole window of a fresh deployment.
EventDatabase collect(const malware::Landscape& landscape,
                      const DeploymentConfig& config) {
  EventDatabase db;
  Deployment{landscape, config}.drain_into(db);
  return db;
}

TEST(Deployment, GeneratesEventsThroughFullPipeline) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 9;
  Deployment deployment{landscape, config};
  EXPECT_EQ(deployment.honeypots().size(), 150u);

  const EventDatabase db = collect(landscape, config);
  EXPECT_GT(db.events().size(), 100u);
  EXPECT_GT(db.samples().size(), 20u);

  std::set<std::string> protocols;
  for (const AttackEvent& event : db.events()) {
    EXPECT_GE(event.location, 0);
    EXPECT_LT(event.location, 30);
    ASSERT_TRUE(event.pi.has_value());  // analyzer succeeded everywhere
    protocols.insert(event.pi->protocol);
    ASSERT_TRUE(event.sample.has_value());
    EXPECT_LT(*event.sample, db.samples().size());
    EXPECT_TRUE(event.epsilon.dst_port == 445 ||
                event.epsilon.dst_port == 135);
  }
  // Both payload specs show up as analyzed protocols.
  EXPECT_TRUE(protocols.count("creceive"));
  EXPECT_TRUE(protocols.count("http"));
}

TEST(Deployment, EventsAreChronologicalPerWeekAndGatewayMatures) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 10;
  Deployment deployment{landscape, config};
  EventDatabase db;
  deployment.drain_into(db);
  // After the run most events were matched by mature FSM models: only
  // a few early ones carry unknown-path markers.
  std::size_t unknown = 0;
  for (const AttackEvent& event : db.events()) {
    unknown += event.epsilon.fsm_path.rfind("unknown/", 0) == 0 ? 1 : 0;
  }
  EXPECT_LT(unknown, db.events().size() / 4);
  EXPECT_GT(deployment.gateway().matched_count(), 0u);
}

TEST(Deployment, DeterministicForSeed) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 11;
  const EventDatabase a = collect(landscape, config);
  const EventDatabase b = collect(landscape, config);
  ASSERT_EQ(a.events().size(), b.events().size());
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].md5, b.samples()[i].md5);
  }
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].attacker, b.events()[i].attacker);
    EXPECT_EQ(a.events()[i].time, b.events()[i].time);
  }
}

TEST(Deployment, DifferentSeedsDifferentData) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config_a;
  config_a.seed = 12;
  DeploymentConfig config_b;
  config_b.seed = 13;
  const EventDatabase a = collect(landscape, config_a);
  const EventDatabase b = collect(landscape, config_b);
  EXPECT_NE(a.events().size(), b.events().size());
}

TEST(Deployment, PolymorphicVariantYieldsUniqueSamples) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 14;
  config.download.truncation_probability = 0.0;
  const EventDatabase db = collect(landscape, config);
  // Count samples per variant: the per-instance variant produces ~one
  // sample per event, the stable variant exactly one.
  std::size_t poly_samples = 0;
  std::size_t stable_samples = 0;
  for (const MalwareSample& sample : db.samples()) {
    if (sample.truth_variant == 0) {
      ++poly_samples;
    } else {
      ++stable_samples;
    }
  }
  EXPECT_EQ(stable_samples, 1u);
  EXPECT_GT(poly_samples, 50u);
}

TEST(Deployment, PullsOneRecordAtATimeAndCountsItsTotalWithoutDeciding) {
  // Weeks 2-5 of location 3 are dark. The event total is counted from
  // the schedule without recording a decision; pulling then yields
  // exactly that many records, the bytes only at a sample's first
  // event, and the same events a drain into a database holds.
  const auto landscape = tiny_landscape();
  fault::FaultPlan plan;
  plan.sensor_outages = {fault::SensorOutage{3, 2, 6}};
  fault::FaultInjector injector{plan};
  DeploymentConfig config;
  config.seed = 9;
  config.faults = &injector;
  Deployment source{landscape, config};
  const std::uint64_t total = source.event_total();
  EXPECT_EQ(injector.report().sensor_checks, 0u);

  std::vector<GeneratedRecord> records;
  while (std::optional<GeneratedRecord> record = source.next()) {
    EXPECT_EQ(source.pulled(), records.size() + 1);
    records.push_back(std::move(*record));
  }
  ASSERT_EQ(records.size(), total);
  const fault::FaultReport report = injector.report();
  EXPECT_GT(report.attacks_lost_to_outage, 0u);
  EXPECT_EQ(report.sensor_checks, total + report.attacks_lost_to_outage);
  EXPECT_FALSE(source.next().has_value());

  fault::FaultInjector again{plan};
  config.faults = &again;
  EventDatabase db;
  std::vector<std::vector<std::uint8_t>> contents;
  Deployment{landscape, config}.drain_into(db, &contents);
  ASSERT_EQ(db.events().size(), total);
  std::size_t new_samples = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const GeneratedRecord& record = records[i];
    const AttackEvent& event = db.events()[i];
    EXPECT_EQ(record.event.time, event.time);
    EXPECT_EQ(record.event.sample, event.sample);
    if (!record.event.sample.has_value()) continue;
    EXPECT_EQ(hex_encode(record.md5), db.sample(*event.sample).md5);
    EXPECT_EQ(record.new_sample, *event.sample == new_samples);
    if (record.new_sample) {
      EXPECT_EQ(record.content, contents[new_samples]);
      ++new_samples;
    } else {
      EXPECT_TRUE(record.content.empty());
    }
  }
  EXPECT_EQ(new_samples, db.samples().size());
}

TEST(Deployment, DrainIntoRunsTheWholeWindowOnly) {
  // A drain numbers samples from the window's first event into an empty
  // database. After one pull, a later event of an already-seen sample
  // would reach the database with no bytes; a database that already
  // holds samples would give every sample an id its events disagree
  // with. Both are refused before anything is added.
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 9;

  Deployment pulled{landscape, config};
  ASSERT_TRUE(pulled.next().has_value());
  EventDatabase empty;
  EXPECT_THROW(pulled.drain_into(empty), ConfigError);
  EXPECT_TRUE(empty.events().empty());
  EXPECT_TRUE(empty.samples().empty());

  EventDatabase full = collect(landscape, config);
  ASSERT_FALSE(full.samples().empty());
  const std::size_t events = full.events().size();
  Deployment fresh{landscape, config};
  EXPECT_THROW(fresh.drain_into(full), ConfigError);
  EXPECT_EQ(full.events().size(), events);
  EXPECT_EQ(fresh.pulled(), 0u);
}

/// The counters generation moves, comparable with EXPECT_EQ.
auto generation_counters(const fault::FaultReport& r) {
  return std::tuple{r.attacks_lost_to_outage, r.sensor_checks,
                    r.proxy_attempts,         r.proxy_failures,
                    r.proxy_retries,          r.refinements_abandoned,
                    r.proxy_backoff_seconds,  r.download_checks,
                    r.downloads_refused,      r.downloads_corrupted};
}

/// Pulls `source` dry toward horizons at every multiple of `step`; with
/// `step` 1 no record is simulated ahead of its pull. Records the fault
/// counters each time a horizon is reached.
std::vector<GeneratedRecord> pull_all(
    Deployment& source, const fault::FaultInjector& injector,
    std::uint64_t step, std::vector<fault::FaultReport>& at_horizons) {
  std::vector<GeneratedRecord> records;
  while (std::optional<GeneratedRecord> record =
             source.next((source.pulled() / step + 1) * step)) {
    records.push_back(std::move(*record));
    if (source.pulled() % step == 0) at_horizons.push_back(injector.report());
  }
  return records;
}

void expect_same_record(const GeneratedRecord& a, const GeneratedRecord& b,
                        std::size_t index) {
  SCOPED_TRACE("record " + std::to_string(index));
  EXPECT_EQ(a.event.time, b.event.time);
  EXPECT_EQ(a.event.attacker, b.event.attacker);
  EXPECT_EQ(a.event.honeypot, b.event.honeypot);
  EXPECT_EQ(a.event.sample, b.event.sample);
  EXPECT_EQ(a.event.download_refused, b.event.download_refused);
  EXPECT_EQ(a.event.refinement_failed, b.event.refinement_failed);
  EXPECT_EQ(a.event.epsilon.fsm_path, b.event.epsilon.fsm_path);
  EXPECT_EQ(a.md5, b.md5);
  EXPECT_EQ(a.new_sample, b.new_sample);
  EXPECT_EQ(a.content, b.content);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.corrupted, b.corrupted);
}

TEST(Deployment, BatchedPullsMatchSinglePulls) {
  // Outages plus refused and corrupted downloads. Pulling toward
  // horizons every 1, 3 or 8 records, or with none, yields the records
  // of pulling one at a time, and each horizon's fault counters are
  // those of the same records pulled one at a time.
  const auto landscape = tiny_landscape();
  fault::FaultPlan plan;
  plan.sensor_outages = {fault::SensorOutage{3, 2, 6}};
  plan.download_refused_probability = 0.1;
  plan.download_corruption_probability = 0.1;
  DeploymentConfig config;
  config.seed = 9;

  fault::FaultInjector single_faults{plan};
  config.faults = &single_faults;
  Deployment single{landscape, config};
  std::vector<fault::FaultReport> single_reports;
  const std::vector<GeneratedRecord> expected =
      pull_all(single, single_faults, 1, single_reports);
  const fault::FaultReport single_report = single_faults.report();
  ASSERT_GT(expected.size(), 100u);
  EXPECT_GT(single_report.attacks_lost_to_outage, 0u);
  EXPECT_GT(single_report.downloads_refused, 0u);
  EXPECT_GT(single_report.downloads_corrupted, 0u);

  for (const std::uint64_t step : {std::uint64_t{1}, std::uint64_t{3},
                                   std::uint64_t{8}}) {
    SCOPED_TRACE("horizon every " + std::to_string(step));
    fault::FaultInjector faults{plan};
    config.faults = &faults;
    Deployment source{landscape, config};
    std::vector<fault::FaultReport> reports;
    const std::vector<GeneratedRecord> records =
        pull_all(source, faults, step, reports);
    ASSERT_EQ(records.size(), expected.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      expect_same_record(records[i], expected[i], i);
    }
    ASSERT_EQ(reports.size(), expected.size() / step);
    std::size_t downloads = 0;  // records [0, n) that tried a download
    for (std::size_t k = 0; k < reports.size(); ++k) {
      const std::size_t n = (k + 1) * step;
      SCOPED_TRACE("at " + std::to_string(n) + " records");
      EXPECT_EQ(generation_counters(reports[k]),
                generation_counters(single_reports[n - 1]));
      // Nothing past the horizon was simulated: every sensor check so far
      // recorded one of the n records or lost an attack to an outage,
      // and only those records decided a download.
      EXPECT_EQ(reports[k].sensor_checks,
                n + reports[k].attacks_lost_to_outage);
      for (std::size_t i = n - step; i < n; ++i) {
        downloads += expected[i].event.pi.has_value() ? 1 : 0;
      }
      EXPECT_EQ(reports[k].download_checks, downloads);
    }
    EXPECT_EQ(generation_counters(faults.report()),
              generation_counters(single_report));
  }

  // No horizon: batches of eight. One of them holds two events of the
  // stable (kNone) variant's sample, and only the first carries bytes.
  fault::FaultInjector faults{plan};
  config.faults = &faults;
  Deployment source{landscape, config};
  std::vector<GeneratedRecord> records;
  while (std::optional<GeneratedRecord> record = source.next()) {
    records.push_back(std::move(*record));
  }
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    expect_same_record(records[i], expected[i], i);
  }
  EXPECT_EQ(generation_counters(faults.report()),
            generation_counters(single_report));
  bool repeat_in_batch = false;
  for (std::size_t i = 0; i < records.size() && !repeat_in_batch; ++i) {
    const GeneratedRecord& first = records[i];
    if (!first.new_sample || first.event.truth_variant != 1) continue;
    const std::size_t batch_end =
        (i / Deployment::kLookAhead + 1) * Deployment::kLookAhead;
    for (std::size_t j = i + 1; j < std::min(batch_end, records.size()); ++j) {
      const GeneratedRecord& again = records[j];
      if (again.event.sample != first.event.sample) continue;
      EXPECT_FALSE(first.content.empty());
      EXPECT_FALSE(again.new_sample);
      EXPECT_EQ(again.md5, first.md5);
      EXPECT_TRUE(again.content.empty());
      EXPECT_FALSE(again.truncated);
      EXPECT_FALSE(again.corrupted);
      repeat_in_batch = true;
      break;
    }
  }
  EXPECT_TRUE(repeat_in_batch);
  Deployment fresh{landscape, config};
  EXPECT_THROW((void)fresh.next(0), ConfigError);
}

TEST(Deployment, RejectsBadConfig) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.location_count = 0;
  EXPECT_THROW((Deployment{landscape, config}), ConfigError);
}

// -------------------------------------------------------------- enrichment

TEST(Enrichment, ProfilesForExecutableSamplesOnly) {
  const auto landscape = tiny_landscape();
  DeploymentConfig config;
  config.seed = 15;
  config.download.truncation_probability = 0.3;
  EventDatabase db = collect(landscape, config);
  const sandbox::Environment environment;
  const EnrichmentStats stats = enrich_database(db, landscape, environment);
  EXPECT_EQ(stats.submitted, db.samples().size());
  EXPECT_EQ(stats.executed + stats.failed, stats.submitted);
  EXPECT_GT(stats.failed, 0u);
  for (const MalwareSample& sample : db.samples()) {
    EXPECT_EQ(sample.profile.has_value(), !sample.truncated);
    EXPECT_FALSE(sample.av_label.empty());
    if (sample.truncated) {
      EXPECT_EQ(sample.av_label, "(corrupted)");
    }
  }
  EXPECT_EQ(db.analyzable_sample_count(), stats.executed);
}

}  // namespace
}  // namespace repro::honeypot
