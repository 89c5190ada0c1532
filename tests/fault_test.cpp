// Fault-injection layer: plan validation, injector determinism, the
// empty-plan bit-identity guarantee, graceful degradation of the
// enrichment pipeline, and the chaos sweep driving random fault plans
// through the full pipeline.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/anomaly.hpp"
#include "analysis/bview.hpp"
#include "analysis/c2.hpp"
#include "analysis/context.hpp"
#include "analysis/evolution.hpp"
#include "analysis/graph.hpp"
#include "analysis/healing.hpp"
#include "cluster/epm.hpp"
#include "cluster/feature.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "honeypot/deployment.hpp"
#include "honeypot/download.hpp"
#include "honeypot/enrichment.hpp"
#include "malware/binary.hpp"
#include "pe/builder.hpp"
#include "pe/parser.hpp"
#include "report/reports.hpp"
#include "sandbox/environment.hpp"
#include "scenario/paper.hpp"
#include "util/error.hpp"

namespace repro {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultReport;
using fault::SensorOutage;

// ------------------------------------------------------------------- plans

TEST(FaultPlan, DefaultIsEmptyAndValid) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, ValidationRejectsBadProbabilities) {
  FaultPlan plan;
  plan.proxy_failure_probability = 1.5;
  EXPECT_THROW(plan.validate(), ConfigError);
  plan.proxy_failure_probability = 0.0;
  plan.download_corruption_probability = -0.1;
  EXPECT_THROW(plan.validate(), ConfigError);
}

TEST(FaultPlan, ValidationRejectsBadRetryAndOutageBounds) {
  FaultPlan plan;
  plan.proxy_max_retries = -1;
  EXPECT_THROW(plan.validate(), ConfigError);
  plan.proxy_max_retries = 0;
  plan.sensor_outages = {SensorOutage{0, 10, 5}};  // inverted window
  EXPECT_THROW(plan.validate(), ConfigError);
}

TEST(FaultPlan, OutagesMakePlanNonEmpty) {
  FaultPlan plan;
  plan.sensor_outages = {SensorOutage{1, 2, 4}};
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ScaledClampsToOne) {
  FaultPlan plan;
  plan.proxy_failure_probability = 0.6;
  plan.av_label_gap_probability = 0.1;
  const FaultPlan doubled = plan.scaled(2.0);
  EXPECT_DOUBLE_EQ(doubled.proxy_failure_probability, 1.0);
  EXPECT_DOUBLE_EQ(doubled.av_label_gap_probability, 0.2);
  EXPECT_NO_THROW(doubled.validate());
}

TEST(FaultPlan, PaperCalibratedIsValidAndNonEmpty) {
  const FaultPlan plan = FaultPlan::paper_calibrated();
  EXPECT_FALSE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
  EXPECT_FALSE(plan.sensor_outages.empty());
}

TEST(FaultPlan, IngestFailureProbabilityIsAFullCitizen) {
  // The streaming delivery site: validated, scaled, part of empty(),
  // and calibrated to a nonzero rate in the paper plan.
  FaultPlan plan;
  plan.ingest_failure_probability = 0.2;
  EXPECT_FALSE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
  EXPECT_DOUBLE_EQ(plan.scaled(2.0).ingest_failure_probability, 0.4);
  plan.ingest_failure_probability = 1.5;
  EXPECT_THROW(plan.validate(), ConfigError);
  EXPECT_GT(FaultPlan::paper_calibrated().ingest_failure_probability, 0.0);
}

TEST(FaultReport, AddAndSubtractAreFieldWiseIncludingDelivery) {
  FaultReport base;
  base.proxy_attempts = 10;
  base.delivery_checks = 7;
  base.delivery_failures = 3;
  base.delivery_retries = 2;
  base.delivery_retry_exhausted = 1;
  base.delivery_backoff_seconds = 40;
  FaultReport delta;
  delta.proxy_attempts = 5;
  delta.delivery_checks = 4;
  delta.delivery_retries = 1;
  delta.delivery_backoff_seconds = 6;

  const FaultReport sum = add(base, delta);
  EXPECT_EQ(sum.proxy_attempts, 15u);
  EXPECT_EQ(sum.delivery_checks, 11u);
  EXPECT_EQ(sum.delivery_failures, 3u);
  EXPECT_EQ(sum.delivery_retries, 3u);
  EXPECT_EQ(sum.delivery_retry_exhausted, 1u);
  EXPECT_EQ(sum.delivery_backoff_seconds, 46);

  // subtract inverts add — the identity the epoch loop leans on when it
  // carves this run's slice out of the injector's running totals.
  const FaultReport back = subtract(sum, delta);
  EXPECT_EQ(back.proxy_attempts, base.proxy_attempts);
  EXPECT_EQ(back.delivery_checks, base.delivery_checks);
  EXPECT_EQ(back.delivery_failures, base.delivery_failures);
  EXPECT_EQ(back.delivery_retries, base.delivery_retries);
  EXPECT_EQ(back.delivery_retry_exhausted, base.delivery_retry_exhausted);
  EXPECT_EQ(back.delivery_backoff_seconds, base.delivery_backoff_seconds);
  EXPECT_FALSE(subtract(sum, sum).any());
  EXPECT_TRUE(sum.any());
}

TEST(FaultPlan, RandomPlanIsDeterministicAndValid) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const FaultPlan a = FaultPlan::random_plan(seed, 8, 30);
    const FaultPlan b = FaultPlan::random_plan(seed, 8, 30);
    EXPECT_NO_THROW(a.validate());
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.sensor_outages.size(), b.sensor_outages.size());
    EXPECT_DOUBLE_EQ(a.proxy_failure_probability,
                     b.proxy_failure_probability);
    EXPECT_DOUBLE_EQ(a.sandbox_failure_probability,
                     b.sandbox_failure_probability);
  }
}

// ---------------------------------------------------------------- injector

TEST(FaultInjector, DecisionsArePureFunctionsOfSeedStageKey) {
  FaultPlan plan;
  plan.seed = 42;
  plan.sandbox_failure_probability = 0.5;
  plan.av_label_gap_probability = 0.5;
  FaultInjector a{plan};
  FaultInjector b{plan};
  // Query b in a different order than a: outcomes must match per key.
  std::vector<bool> sandbox_a, sandbox_b;
  for (std::uint64_t key = 0; key < 200; ++key) {
    sandbox_a.push_back(a.sandbox_fails(key));
  }
  for (std::uint64_t key = 200; key-- > 0;) {
    (void)b.av_label_gap(key);  // interleave another stage
    sandbox_b.push_back(b.sandbox_fails(key));
  }
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(sandbox_a[key], sandbox_b[199 - key]) << "key " << key;
  }
  // Different stages decide independently: with p=0.5 each, the two
  // stages must not be perfectly correlated over 200 keys.
  std::size_t agreements = 0;
  FaultInjector c{plan};
  for (std::uint64_t key = 0; key < 200; ++key) {
    agreements += c.sandbox_fails(key) == c.av_label_gap(key) ? 1 : 0;
  }
  EXPECT_GT(agreements, 0u);
  EXPECT_LT(agreements, 200u);
}

TEST(FaultInjector, SensorOutageWindowIsHalfOpenPerLocation) {
  FaultPlan plan;
  plan.sensor_outages = {SensorOutage{3, 2, 5}};
  FaultInjector injector{plan};
  EXPECT_FALSE(injector.sensor_down(3, 1));
  EXPECT_TRUE(injector.sensor_down(3, 2));
  EXPECT_TRUE(injector.sensor_down(3, 4));
  EXPECT_FALSE(injector.sensor_down(3, 5));  // exclusive upper bound
  EXPECT_FALSE(injector.sensor_down(2, 3));  // other locations unaffected
  EXPECT_EQ(injector.report().attacks_lost_to_outage, 2u);
}

TEST(FaultInjector, ProxyRetriesThenAbandons) {
  FaultPlan plan;
  plan.proxy_failure_probability = 1.0;  // every attempt fails
  plan.proxy_max_retries = 2;
  plan.proxy_backoff_base_seconds = 2;
  FaultInjector injector{plan};
  const FaultInjector::ProxyOutcome outcome = injector.try_proxy(7);
  EXPECT_FALSE(outcome.refined);
  EXPECT_EQ(outcome.attempts, 3);            // 1 try + 2 retries
  EXPECT_EQ(outcome.backoff_seconds, 2 + 4);  // exponential schedule
  EXPECT_EQ(injector.report().refinements_abandoned, 1u);
  EXPECT_EQ(injector.report().proxy_failures, 3u);
  EXPECT_EQ(injector.report().proxy_retries, 2u);
}

TEST(FaultInjector, ProxySucceedsImmediatelyWithoutFailures) {
  FaultPlan plan;  // probability 0
  FaultInjector injector{plan};
  const FaultInjector::ProxyOutcome outcome = injector.try_proxy(7);
  EXPECT_TRUE(outcome.refined);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.backoff_seconds, 0);
  EXPECT_EQ(injector.report().refinements_abandoned, 0u);
}

TEST(FaultInjector, CorruptionIsDeterministicAndBreaksPeParsing) {
  malware::PeShape shape;
  shape.target_file_size = 8192;
  const std::vector<std::uint8_t> image =
      pe::build_pe(malware::make_pe_template(shape, 5));
  ASSERT_TRUE(pe::looks_like_pe(image));
  ASSERT_NO_THROW((void)pe::parse_pe(image));

  FaultPlan plan;
  plan.seed = 9;
  FaultInjector injector{plan};
  std::vector<std::uint8_t> damaged_a = image;
  std::vector<std::uint8_t> damaged_b = image;
  injector.corrupt(damaged_a, 31);
  injector.corrupt(damaged_b, 31);
  EXPECT_EQ(damaged_a, damaged_b);  // keyed, reproducible damage
  EXPECT_NE(damaged_a, image);
  // The DOS magic is gone, so the image can never parse as PE again.
  EXPECT_FALSE(pe::looks_like_pe(damaged_a));
  EXPECT_THROW((void)pe::parse_pe(damaged_a), ParseError);
  // A different key damages different bytes.
  std::vector<std::uint8_t> damaged_c = image;
  injector.corrupt(damaged_c, 32);
  EXPECT_NE(damaged_a, damaged_c);
}

// ------------------------------------------------- tiny pipeline fixtures

/// A small landscape covering every pipeline path the fault layer can
/// touch: a per-instance polymorphic worm, a stable variant, an IRC
/// bot (C&C correlation), a downloader (DNS-dependent behavior) and a
/// non-PE oddball (enrichment failure path).
malware::Landscape chaos_landscape() {
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

  const auto add_variant = [&](const std::string& name,
                               malware::PolymorphismMode polymorphism,
                               double rate) -> malware::MalwareVariant& {
    malware::MalwareVariant variant;
    variant.id = static_cast<malware::VariantId>(landscape.variants.size());
    variant.family = 0;
    variant.name = name;
    variant.av_name = "Test.AV." + name;
    variant.seed = 100 + static_cast<std::uint64_t>(variant.id);
    variant.polymorphism = polymorphism;
    malware::PeShape shape;
    shape.target_file_size = 8192;
    variant.pe_template = malware::make_pe_template(shape, variant.seed);
    variant.mutable_sections =
        malware::mutable_section_indices(variant.pe_template);
    variant.behavior.base_features = {"feat|" + name};
    variant.exploit_index = variant.id % 2;
    variant.payload_index = variant.id % 2;
    variant.population.host_count = 30;
    variant.schedule.kind = malware::ActivitySchedule::Kind::kContinuous;
    variant.schedule.start_week = 0;
    variant.schedule.end_week = 8;
    variant.schedule.weekly_event_rate = rate;
    variant.schedule.seed = variant.seed;
    landscape.families[0].variants.push_back(variant.id);
    landscape.variants.push_back(std::move(variant));
    return landscape.variants.back();
  };

  add_variant("worm", malware::PolymorphismMode::kPerInstance, 10.0);
  add_variant("stable", malware::PolymorphismMode::kNone, 8.0);
  malware::MalwareVariant& bot =
      add_variant("bot", malware::PolymorphismMode::kNone, 5.0);
  bot.behavior.kind = malware::BehaviorKind::kIrcBot;
  bot.behavior.irc =
      malware::IrcCnc{net::Ipv4::parse("67.43.232.36"), 6667, "#kok6"};
  malware::MalwareVariant& dropper =
      add_variant("dropper", malware::PolymorphismMode::kPerSource, 4.0);
  dropper.behavior.kind = malware::BehaviorKind::kDownloader;
  dropper.behavior.downloader = malware::DownloaderCnc{"chaos.example", 2};
  malware::MalwareVariant& oddball =
      add_variant("oddball", malware::PolymorphismMode::kNone, 2.0);
  oddball.format = malware::BinaryFormat::kRawData;
  oddball.raw_size = 2048;
  return landscape;
}

sandbox::Environment chaos_environment(const malware::Landscape& landscape) {
  sandbox::Environment environment;
  const SimTime start = landscape.start_time;
  environment.set_dns("chaos.example",
                      sandbox::AvailabilityWindow{start, add_weeks(start, 5)});
  environment.set_server(
      net::Ipv4::parse("67.43.232.36"),
      sandbox::AvailabilityWindow{start, add_weeks(start, 6)});
  return environment;
}

struct PipelineRun {
  honeypot::EventDatabase db;
  /// The collected bytes, by sample id (the database keeps only facts).
  std::vector<std::vector<std::uint8_t>> contents;
  honeypot::EnrichmentStats enrichment;
  cluster::EpmResult e;
  cluster::EpmResult g;
  cluster::EpmResult p;
  cluster::EpmResult m;
  analysis::BehavioralView b;
};

PipelineRun run_pipeline(const malware::Landscape& landscape,
                         const sandbox::Environment& environment,
                         std::uint64_t seed, fault::FaultInjector* faults) {
  PipelineRun run;
  honeypot::DeploymentConfig config;
  config.seed = seed;
  config.download.truncation_probability = 0.14;
  config.faults = faults;
  honeypot::Deployment{landscape, config}.drain_into(run.db, &run.contents);
  run.enrichment =
      honeypot::enrich_database(run.db, landscape, environment, faults);
  run.e = cluster::epm_cluster(cluster::build_epsilon_data(run.db));
  run.g = cluster::epm_cluster(cluster::build_gamma_data(run.db));
  run.p = cluster::epm_cluster(cluster::build_pi_data(run.db));
  run.m = cluster::epm_cluster(cluster::build_mu_data(run.db));
  run.b = analysis::BehavioralView::build(run.db);
  return run;
}

// ----------------------------------------------- empty-plan bit identity

TEST(FaultIdentity, EmptyPlanInjectorIsBitIdenticalToNoInjector) {
  const malware::Landscape landscape = chaos_landscape();
  const sandbox::Environment environment = chaos_environment(landscape);

  FaultInjector empty{FaultPlan{}};
  PipelineRun without = run_pipeline(landscape, environment, 33, nullptr);
  PipelineRun with = run_pipeline(landscape, environment, 33, &empty);

  EXPECT_FALSE(empty.report().any());

  ASSERT_EQ(without.db.events().size(), with.db.events().size());
  for (std::size_t i = 0; i < without.db.events().size(); ++i) {
    const honeypot::AttackEvent& a = without.db.events()[i];
    const honeypot::AttackEvent& b = with.db.events()[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.attacker, b.attacker);
    EXPECT_EQ(a.honeypot, b.honeypot);
    EXPECT_EQ(a.epsilon.fsm_path, b.epsilon.fsm_path);
    EXPECT_EQ(a.epsilon.dst_port, b.epsilon.dst_port);
    EXPECT_EQ(a.gamma.has_value(), b.gamma.has_value());
    EXPECT_EQ(a.pi.has_value(), b.pi.has_value());
    EXPECT_EQ(a.sample, b.sample);
    EXPECT_FALSE(b.download_refused);
    EXPECT_FALSE(b.refinement_failed);
  }
  ASSERT_EQ(without.db.samples().size(), with.db.samples().size());
  for (std::size_t i = 0; i < without.db.samples().size(); ++i) {
    const honeypot::MalwareSample& a = without.db.samples()[i];
    const honeypot::MalwareSample& b = with.db.samples()[i];
    EXPECT_EQ(a.md5, b.md5);
    EXPECT_EQ(without.contents.at(i), with.contents.at(i));
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_FALSE(b.corrupted);
    EXPECT_FALSE(b.label_missing);
    EXPECT_EQ(a.av_label, b.av_label);
    EXPECT_EQ(a.profile.has_value(), b.profile.has_value());
  }
  // The derived views agree too — same clusters, same anomalies.
  EXPECT_EQ(without.enrichment.executed, with.enrichment.executed);
  EXPECT_EQ(without.enrichment.failed, with.enrichment.failed);
  EXPECT_EQ(with.enrichment.sandbox_faults, 0u);
  EXPECT_EQ(with.enrichment.label_gaps, 0u);
  EXPECT_EQ(without.e.cluster_count(), with.e.cluster_count());
  EXPECT_EQ(without.g.cluster_count(), with.g.cluster_count());
  EXPECT_EQ(without.p.cluster_count(), with.p.cluster_count());
  EXPECT_EQ(without.m.cluster_count(), with.m.cluster_count());
  EXPECT_EQ(without.b.cluster_count(), with.b.cluster_count());
  EXPECT_EQ(without.b.singleton_count(), with.b.singleton_count());
}

// ------------------------------------------- enrichment fault tolerance

TEST(FaultEnrichment, RecoversParseErrorsInsteadOfPropagating) {
  const malware::Landscape landscape = chaos_landscape();
  const sandbox::Environment environment = chaos_environment(landscape);

  malware::PeShape shape;
  shape.target_file_size = 8192;
  const std::vector<std::uint8_t> image =
      pe::build_pe(malware::make_pe_template(shape, 17));

  honeypot::EventDatabase db;
  // 1. A bit-corrupted PE: headers intact enough to look like PE but
  //    cut mid-structure, so parse_pe throws ParseError.
  const std::size_t pe_offset = static_cast<std::size_t>(image[0x3c]) |
                                static_cast<std::size_t>(image[0x3d]) << 8;
  std::vector<std::uint8_t> cut{
      image.begin(), image.begin() + static_cast<long>(pe_offset + 6)};
  ASSERT_TRUE(pe::looks_like_pe(cut));
  ASSERT_THROW((void)pe::parse_pe(cut), ParseError);
  const honeypot::SampleId parse_victim =
      db.add_sample(cut, SimTime{100}, false, 0);
  // 2. Undecodable junk bytes: not even MZ.
  const honeypot::SampleId junk =
      db.add_sample(std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef},
                    SimTime{100}, false, 1);
  // 3. A healthy image for contrast.
  const honeypot::SampleId healthy =
      db.add_sample(image, SimTime{100}, false, 1);

  honeypot::EnrichmentStats stats;
  ASSERT_NO_THROW(stats = honeypot::enrich_database(db, landscape,
                                                    environment, nullptr));
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.parse_failures, 1u);  // only the cut image looked like PE
  EXPECT_EQ(stats.sandbox_faults, 0u);
  EXPECT_FALSE(db.sample(parse_victim).profile.has_value());
  EXPECT_FALSE(db.sample(junk).profile.has_value());
  EXPECT_TRUE(db.sample(healthy).profile.has_value());
}

TEST(FaultEnrichment, SandboxFaultsLeaveSamplesUnenrichedForHealing) {
  const malware::Landscape landscape = chaos_landscape();
  const sandbox::Environment environment = chaos_environment(landscape);

  FaultPlan plan;
  plan.seed = 5;
  plan.sandbox_failure_probability = 1.0;  // every submission crashes
  FaultInjector injector{plan};
  PipelineRun run = run_pipeline(landscape, environment, 21, &injector);

  EXPECT_EQ(run.enrichment.executed, 0u);
  EXPECT_GT(run.enrichment.sandbox_faults, 0u);
  EXPECT_EQ(run.enrichment.submitted,
            run.enrichment.executed + run.enrichment.failed +
                run.enrichment.sandbox_faults);
  EXPECT_EQ(run.db.analyzable_sample_count(), 0u);

  // The healing path recovers exactly the runnable victims.
  const std::vector<honeypot::SampleId> retry =
      analysis::unenriched_executable_samples(run.db);
  EXPECT_EQ(retry.size(), run.enrichment.sandbox_faults);
  const analysis::HealingOutcome healed = analysis::heal_by_reexecution(
      run.db, landscape, environment, retry, run.b, 1);
  EXPECT_EQ(healed.report.recovered_unenriched, retry.size());
  EXPECT_EQ(run.db.analyzable_sample_count(), retry.size());
}

TEST(FaultEnrichment, LabelGapsLeaveLabelsExplicitlyMissing) {
  const malware::Landscape landscape = chaos_landscape();
  const sandbox::Environment environment = chaos_environment(landscape);

  FaultPlan plan;
  plan.seed = 6;
  plan.av_label_gap_probability = 0.5;
  FaultInjector injector{plan};
  PipelineRun run = run_pipeline(landscape, environment, 22, &injector);

  std::size_t missing = 0;
  for (const honeypot::MalwareSample& sample : run.db.samples()) {
    if (sample.label_missing) {
      ++missing;
      EXPECT_TRUE(sample.av_label.empty());
    } else {
      EXPECT_FALSE(sample.av_label.empty());
    }
  }
  EXPECT_GT(missing, 0u);
  EXPECT_LT(missing, run.db.samples().size());
  EXPECT_EQ(missing, run.enrichment.label_gaps);
}

// -------------------------------------------- download regression (tiny)

TEST(FaultDownload, TinyBinariesAreNeverTruncated) {
  honeypot::DownloadOptions options;
  options.truncation_probability = 1.0;  // truncate whenever possible
  options.min_kept_bytes = 256;
  Rng rng{3};
  for (const std::size_t size : {std::size_t{1}, std::size_t{64},
                                 std::size_t{255}, std::size_t{256}}) {
    const std::vector<std::uint8_t> binary(size, 0xAB);
    const honeypot::DownloadResult result =
        honeypot::emulate_download(binary, options, rng);
    EXPECT_FALSE(result.truncated) << "size " << size;
    EXPECT_EQ(result.content, binary) << "size " << size;
  }
  // One byte above the floor, truncation is possible again and keeps at
  // least min_kept_bytes.
  const std::vector<std::uint8_t> big(257, 0xAB);
  const honeypot::DownloadResult result =
      honeypot::emulate_download(big, options, rng);
  EXPECT_TRUE(result.truncated);
  EXPECT_GE(result.content.size(), options.min_kept_bytes);
  EXPECT_LT(result.content.size(), big.size());
}

// ------------------------------------------------------------ chaos sweep

/// Invariants every pipeline run must satisfy, faulted or not.
void check_pipeline_invariants(const PipelineRun& run) {
  // Cross-reference integrity (throws on dangling ids).
  ASSERT_NO_THROW(run.db.check_consistency());

  // Enrichment partition.
  ASSERT_EQ(run.enrichment.submitted, run.db.samples().size());
  ASSERT_EQ(run.enrichment.submitted,
            run.enrichment.executed + run.enrichment.failed +
                run.enrichment.sandbox_faults);

  // Event-level degradation flags are mutually consistent.
  for (const honeypot::AttackEvent& event : run.db.events()) {
    if (event.download_refused) {
      ASSERT_TRUE(event.pi.has_value());
      ASSERT_FALSE(event.sample.has_value());
    }
    const honeypot::DimensionPresence presence = event.presence();
    ASSERT_TRUE(presence.epsilon);
    ASSERT_EQ(presence.mu, event.sample.has_value());
    if (event.refinement_failed) {
      ASSERT_EQ(event.epsilon.fsm_path.rfind("unknown/", 0), 0u);
    }
  }

  // Sample-level degradation flags.
  for (const honeypot::MalwareSample& sample : run.db.samples()) {
    if (!sample.intact()) {
      ASSERT_FALSE(sample.profile.has_value());
    }
    if (sample.label_missing) {
      ASSERT_TRUE(sample.av_label.empty());
    }
  }

  // Every clustering is a partition of its (possibly reduced) rows.
  const auto check_partition = [](const cluster::EpmResult& result) {
    std::size_t members = 0;
    for (const auto& cluster : result.members) members += cluster.size();
    ASSERT_EQ(members, result.assignment.size());
    for (const int cluster : result.assignment) {
      ASSERT_GE(cluster, 0);
      ASSERT_LT(static_cast<std::size_t>(cluster), result.cluster_count());
    }
  };
  check_partition(run.e);
  check_partition(run.g);
  check_partition(run.p);
  check_partition(run.m);
  ASSERT_EQ(run.b.row_count(), run.db.analyzable_sample_count());
}

TEST(FaultChaos, RandomPlansNeverBreakThePipeline) {
  const malware::Landscape landscape = chaos_landscape();
  const sandbox::Environment environment = chaos_environment(landscape);
  const SimTime origin = landscape.start_time;

  for (int iteration = 0; iteration < 500; ++iteration) {
    const FaultPlan plan = FaultPlan::random_plan(
        1000 + static_cast<std::uint64_t>(iteration), landscape.weeks, 30);
    FaultInjector injector{plan};
    PipelineRun run;
    ASSERT_NO_THROW(run = run_pipeline(landscape, environment, 77,
                                       &injector))
        << "iteration " << iteration;
    check_pipeline_invariants(run);

    // Fault accounting matches what landed in the dataset.
    std::size_t refused = 0, refinement_failures = 0;
    for (const honeypot::AttackEvent& event : run.db.events()) {
      refused += event.download_refused ? 1 : 0;
      refinement_failures += event.refinement_failed ? 1 : 0;
    }
    ASSERT_EQ(refused, injector.report().downloads_refused);
    ASSERT_EQ(refinement_failures,
              injector.report().refinements_abandoned);
    ASSERT_EQ(run.enrichment.sandbox_faults,
              injector.report().sandbox_failures);
    ASSERT_EQ(run.enrichment.label_gaps, injector.report().av_label_gaps);

    // Every downstream analysis and report completes on the partial
    // dataset; run the full chain on a slice of iterations (it is by
    // far the most expensive part of the sweep).
    if (iteration % 10 != 0) continue;
    ASSERT_NO_THROW({
      const analysis::SingletonReport anomalies =
          analysis::detect_singleton_anomalies(run.db, run.e, run.p, run.m,
                                               run.b);
      std::vector<honeypot::SampleId> suspects = anomalies.anomalous_samples;
      const std::vector<honeypot::SampleId> retry =
          analysis::unenriched_executable_samples(run.db);
      suspects.insert(suspects.end(), retry.begin(), retry.end());
      const analysis::HealingOutcome healed = analysis::heal_by_reexecution(
          run.db, landscape, environment, suspects, run.b, 1);
      const analysis::RelationshipGraph graph =
          analysis::build_relationship_graph(run.db, run.e, run.p, run.m,
                                             healed.after, 5);
      const std::vector<int> split = analysis::most_split_b_clusters(
          run.db, run.m, healed.after, 1);
      if (!split.empty()) {
        (void)analysis::propagation_context(run.db, run.m, healed.after,
                                            split.front(), origin,
                                            landscape.weeks);
      }
      const analysis::C2Report c2 =
          analysis::correlate_irc(run.db, run.m, healed.after);
      (void)analysis::analyze_evolution(run.db, run.m, healed.after, origin,
                                        landscape.weeks);
      // Report emitters render the partial dataset without throwing.
      (void)report::big_picture(run.db, run.enrichment, run.e, run.p, run.m,
                                healed.after);
      (void)report::figure3(graph);
      (void)report::figure4(anomalies);
      (void)report::table2(c2);
      (void)report::healing(healed.report);
      (void)report::degradation(injector.report(), run.db, run.enrichment);
      // Healing re-executions never resurrect damaged samples.
      for (const honeypot::MalwareSample& sample : run.db.samples()) {
        if (!sample.intact()) {
          ASSERT_FALSE(sample.profile.has_value());
        }
      }
    }) << "iteration " << iteration;
  }
}

// The scenario layer threads the plan through and surfaces the report.
TEST(FaultScenario, PaperCalibratedPlanDegradesButCompletes) {
  scenario::ScenarioOptions options;
  options.scale = 0.05;
  options.faults = FaultPlan::paper_calibrated();
  const scenario::Dataset faulted = scenario::build_paper_dataset(options);
  EXPECT_TRUE(faulted.fault_report.any());
  EXPECT_NO_THROW(faulted.db.check_consistency());

  scenario::ScenarioOptions clean = options;
  clean.faults = FaultPlan{};
  const scenario::Dataset baseline = scenario::build_paper_dataset(clean);
  EXPECT_FALSE(baseline.fault_report.any());
  // Faults only ever remove observations.
  EXPECT_LT(faulted.db.events().size(), baseline.db.events().size());
  EXPECT_LE(faulted.enrichment.executed, baseline.enrichment.executed);
  // But every perspective stays populated.
  EXPECT_GT(faulted.e.cluster_count(), 0u);
  EXPECT_GT(faulted.p.cluster_count(), 0u);
  EXPECT_GT(faulted.m.cluster_count(), 0u);
  EXPECT_GT(faulted.b.cluster_count(), 0u);
  const std::string summary = report::degradation(
      faulted.fault_report, faulted.db, faulted.enrichment);
  EXPECT_NE(summary.find("fault degradation summary"), std::string::npos);
}

}  // namespace
}  // namespace repro
