// Unit tests for the cluster module: EPM feature extraction, invariant
// discovery, patterns, EPM clustering, MinHash/LSH, behavioral
// clustering, peHash baseline, quality metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "cluster/behavioral.hpp"
#include "cluster/epm.hpp"
#include "cluster/feature.hpp"
#include "cluster/incremental.hpp"
#include "cluster/invariants.hpp"
#include "cluster/metrics.hpp"
#include "cluster/minhash.hpp"
#include "cluster/pattern.hpp"
#include "cluster/pehash.hpp"
#include "honeypot/database.hpp"
#include "obs/metrics.hpp"
#include "pe/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace repro::cluster {
namespace {

// ------------------------------------------------------------ test helpers

/// Builds a DimensionData with a tiny 2-feature schema.
DimensionData make_data(
    const std::vector<std::pair<std::string, std::string>>& rows,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& contexts) {
  DimensionData data;
  data.schema = FeatureSchema{Dimension::kEpsilon, {"f0", "f1"}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    data.instances.push_back(FeatureVector{{rows[i].first, rows[i].second}});
    data.contexts.push_back(InstanceContext{net::Ipv4{contexts[i].first},
                                            net::Ipv4{contexts[i].second}});
    data.event_ids.push_back(i);
  }
  return data;
}

/// Rows where value "v" is seen by `sources` attackers over `instances`
/// rows against `destinations` honeypots.
DimensionData spread_data(std::size_t instances, std::size_t sources,
                          std::size_t destinations) {
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> contexts;
  for (std::size_t i = 0; i < instances; ++i) {
    rows.push_back({"v", "w" + std::to_string(i)});
    contexts.push_back({static_cast<std::uint32_t>(i % sources + 1),
                        static_cast<std::uint32_t>(i % destinations + 100)});
  }
  return make_data(rows, contexts);
}

// -------------------------------------------------------------- invariants

TEST(Invariants, RequiresAllThreeThresholds) {
  const InvariantThresholds thresholds{10, 3, 3};
  // Meets all thresholds.
  EXPECT_TRUE(discover_invariants(spread_data(10, 3, 3), thresholds)
                  .is_invariant(0, "v"));
  // Too few instances.
  EXPECT_FALSE(discover_invariants(spread_data(9, 3, 3), thresholds)
                   .is_invariant(0, "v"));
  // Too few sources.
  EXPECT_FALSE(discover_invariants(spread_data(10, 2, 3), thresholds)
                   .is_invariant(0, "v"));
  // Too few destinations.
  EXPECT_FALSE(discover_invariants(spread_data(10, 3, 2), thresholds)
                   .is_invariant(0, "v"));
}

/// Sweep the instance threshold: the invariant flips exactly at the
/// configured boundary.
class ThresholdSweep : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdSweep, FlipsAtBoundary) {
  const std::size_t threshold = static_cast<std::size_t>(GetParam());
  const InvariantThresholds thresholds{threshold, 1, 1};
  EXPECT_TRUE(discover_invariants(spread_data(threshold, 3, 3), thresholds)
                  .is_invariant(0, "v"));
  if (threshold > 1) {
    EXPECT_FALSE(
        discover_invariants(spread_data(threshold - 1, 3, 3), thresholds)
            .is_invariant(0, "v"));
  }
}

INSTANTIATE_TEST_SUITE_P(Boundaries, ThresholdSweep,
                         ::testing::Values(1, 2, 5, 10, 25));

TEST(Invariants, PerInstanceValuesNeverInvariant) {
  // f1 takes a different value on every row.
  const auto table = discover_invariants(spread_data(50, 10, 10),
                                         InvariantThresholds{10, 3, 3});
  EXPECT_EQ(table.count(1), 0u);
  EXPECT_EQ(table.count(0), 1u);
}

TEST(Invariants, NotAvailableIsNeverInvariant) {
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> contexts;
  for (std::size_t i = 0; i < 50; ++i) {
    rows.push_back({kNotAvailable, "x"});
    contexts.push_back({static_cast<std::uint32_t>(i), 100 + static_cast<std::uint32_t>(i)});
  }
  const auto table =
      discover_invariants(make_data(rows, contexts), InvariantThresholds{});
  EXPECT_FALSE(table.is_invariant(0, kNotAvailable));
  EXPECT_TRUE(table.is_invariant(1, "x"));
}

TEST(Invariants, AritymismatchThrows) {
  DimensionData data;
  data.schema = FeatureSchema{Dimension::kEpsilon, {"f0", "f1"}};
  data.instances.push_back(FeatureVector{{"only-one"}});
  data.contexts.push_back(InstanceContext{});
  data.event_ids.push_back(0);
  EXPECT_THROW(discover_invariants(data), ConfigError);
}

TEST(Invariants, TableBoundsChecks) {
  InvariantTable table{2};
  EXPECT_THROW(table.add(5, "x"), ConfigError);
  EXPECT_THROW((void)table.count(5), ConfigError);
  EXPECT_FALSE(table.is_invariant(5, "x"));
}

// ----------------------------------------------------------------- pattern

TEST(Pattern, GeneralizeKeepsInvariantsOnly) {
  InvariantTable table{3};
  table.add(0, "a");
  table.add(2, "c");
  const auto pattern =
      Pattern::generalize(FeatureVector{{"a", "b", "c"}}, table);
  EXPECT_EQ(pattern.key(), "a|*|c");
  EXPECT_EQ(pattern.specificity(), 2u);
}

TEST(Pattern, GeneralizeChecksValueNotJustFeature) {
  InvariantTable table{1};
  table.add(0, "a");
  EXPECT_EQ(Pattern::generalize(FeatureVector{{"z"}}, table).key(), "*");
}

TEST(Pattern, MatchRespectsWildcards) {
  const Pattern pattern{{std::nullopt, "2", "3"}};
  EXPECT_TRUE(pattern.matches(FeatureVector{{"1", "2", "3"}}));
  EXPECT_TRUE(pattern.matches(FeatureVector{{"x", "2", "3"}}));
  EXPECT_FALSE(pattern.matches(FeatureVector{{"1", "2", "4"}}));
  EXPECT_FALSE(pattern.matches(FeatureVector{{"1", "2"}}));  // arity
}

TEST(Pattern, Subsumption) {
  const Pattern general{{std::nullopt, std::nullopt, "3"}};
  const Pattern specific{{std::nullopt, "2", "3"}};
  EXPECT_TRUE(general.subsumes(specific));
  EXPECT_FALSE(specific.subsumes(general));
  EXPECT_TRUE(general.subsumes(general));
}

TEST(Pattern, DescribeRendersFields) {
  const FeatureSchema schema{Dimension::kMu, {"File MD5", "File size"}};
  const Pattern pattern{{std::nullopt, "59904"}};
  const std::string text = pattern.describe(schema);
  EXPECT_NE(text.find("File MD5 = *"), std::string::npos);
  EXPECT_NE(text.find("File size = '59904'"), std::string::npos);
  EXPECT_THROW(pattern.describe(FeatureSchema{Dimension::kMu, {"one"}}),
               ConfigError);
}

// --------------------------------------------------------------------- EPM

TEST(Epm, ClustersByInvariantCombination) {
  // Two groups: ("a", unique) and ("b", unique) -> 2 clusters.
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> contexts;
  for (int i = 0; i < 20; ++i) {
    rows.push_back({i % 2 == 0 ? "a" : "b", "u" + std::to_string(i)});
    contexts.push_back({static_cast<std::uint32_t>(i % 5 + 1),
                        static_cast<std::uint32_t>(i % 3 + 100)});
  }
  const auto result = epm_cluster(make_data(rows, contexts));
  EXPECT_EQ(result.cluster_count(), 2u);
  EXPECT_EQ(result.patterns[result.assignment[0]].key(), "a|*");
  EXPECT_EQ(result.patterns[result.assignment[1]].key(), "b|*");
  // Events map back to their clusters.
  EXPECT_EQ(result.cluster_of_event(0), result.assignment[0]);
  EXPECT_EQ(result.cluster_of_event(999), -1);
}

TEST(Epm, MembersPartitionInstances) {
  const auto result = epm_cluster(spread_data(40, 5, 5));
  std::size_t total = 0;
  for (const auto& members : result.members) total += members.size();
  EXPECT_EQ(total, 40u);
}

TEST(Epm, PolymorphicMd5StyleFieldBecomesWildcard) {
  // Mirrors the paper's Allaple case: per-instance f1 -> "do not care".
  const auto result = epm_cluster(spread_data(40, 5, 5));
  ASSERT_EQ(result.cluster_count(), 1u);
  EXPECT_EQ(result.patterns[0].key(), "v|*");
}

TEST(Epm, ClassifyPicksMostSpecific) {
  // Build data producing both "a|*" and a fully-wildcard-compatible
  // sibling "a|w".
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> contexts;
  for (int i = 0; i < 20; ++i) {  // group 1: a with stable second value
    rows.push_back({"a", "w"});
    contexts.push_back({static_cast<std::uint32_t>(i % 5 + 1),
                        static_cast<std::uint32_t>(i % 4 + 100)});
  }
  for (int i = 0; i < 20; ++i) {  // group 2: a with unique second value
    rows.push_back({"a", "u" + std::to_string(i)});
    contexts.push_back({static_cast<std::uint32_t>(i % 5 + 1),
                        static_cast<std::uint32_t>(i % 4 + 100)});
  }
  const auto result = epm_cluster(make_data(rows, contexts));
  ASSERT_EQ(result.cluster_count(), 2u);
  // A fresh instance matching both patterns goes to the most specific.
  const auto specific = result.classify(FeatureVector{{"a", "w"}});
  ASSERT_TRUE(specific.has_value());
  EXPECT_EQ(result.patterns[*specific].key(), "a|w");
  // An instance matching only the wildcard pattern.
  const auto general = result.classify(FeatureVector{{"a", "other"}});
  ASSERT_TRUE(general.has_value());
  EXPECT_EQ(result.patterns[*general].key(), "a|*");
}

TEST(Epm, ClassifyReturnsNulloptWhenNothingMatches) {
  const auto result = epm_cluster(spread_data(20, 5, 5));
  EXPECT_FALSE(result.classify(FeatureVector{{"zzz", "y"}}).has_value());
}

TEST(Epm, OwnGeneralizationIsMostSpecificMatch) {
  // Property: for every instance, classify() lands on its assigned
  // cluster.
  Rng rng{7};
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> contexts;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({"k" + std::to_string(rng.index(4)),
                    rng.chance(0.5) ? "stable" : "u" + std::to_string(i)});
    contexts.push_back({static_cast<std::uint32_t>(rng.index(10)),
                        static_cast<std::uint32_t>(rng.index(10) + 100)});
  }
  const auto data = make_data(rows, contexts);
  const auto result = epm_cluster(data);
  for (std::size_t i = 0; i < data.instances.size(); ++i) {
    const auto classified = result.classify(data.instances[i]);
    ASSERT_TRUE(classified.has_value());
    EXPECT_EQ(*classified, result.assignment[i]);
  }
}

// ----------------------------------------------------------------- minhash

TEST(MinHash, EstimateApproximatesJaccard) {
  Rng rng{11};
  const MinHasher hasher{200, 1};
  for (int trial = 0; trial < 10; ++trial) {
    // Two sets with known overlap.
    std::vector<std::uint64_t> a;
    std::vector<std::uint64_t> b;
    const std::size_t shared = 20 + rng.index(30);
    const std::size_t only = 10 + rng.index(20);
    for (std::size_t i = 0; i < shared; ++i) {
      const std::uint64_t id = rng.next();
      a.push_back(id);
      b.push_back(id);
    }
    for (std::size_t i = 0; i < only; ++i) a.push_back(rng.next());
    for (std::size_t i = 0; i < only; ++i) b.push_back(rng.next());
    const double truth = static_cast<double>(shared) /
                         static_cast<double>(shared + 2 * only);
    const double estimate = MinHasher::estimate_similarity(
        hasher.signature(a), hasher.signature(b));
    EXPECT_NEAR(estimate, truth, 0.15);
  }
}

TEST(MinHash, IdenticalSetsIdenticalSignatures) {
  const MinHasher hasher{64, 2};
  const std::vector<std::uint64_t> ids{1, 2, 3, 4, 5};
  EXPECT_EQ(hasher.signature(ids), hasher.signature(ids));
  EXPECT_EQ(MinHasher::estimate_similarity(hasher.signature(ids),
                                           hasher.signature(ids)),
            1.0);
}

TEST(MinHash, ZeroHashesThrows) { EXPECT_THROW((MinHasher{0, 1}), ConfigError); }

TEST(Lsh, FindsSimilarPairs) {
  const MinHasher hasher{100, 3};
  LshIndex index{20, 5};
  // Two near-duplicate sets and one distinct set.
  std::vector<std::uint64_t> a;
  for (std::uint64_t i = 0; i < 50; ++i) a.push_back(i * 977);
  std::vector<std::uint64_t> b = a;
  b[0] = 123456789;
  std::vector<std::uint64_t> c;
  for (std::uint64_t i = 0; i < 50; ++i) c.push_back(i * 977 + 13);
  index.insert(0, hasher.signature(a));
  index.insert(1, hasher.signature(b));
  index.insert(2, hasher.signature(c));
  const auto pairs = index.candidate_pairs();
  EXPECT_NE(std::find(pairs.begin(), pairs.end(), std::make_pair<std::size_t,
                      std::size_t>(0, 1)),
            pairs.end());
}

TEST(Lsh, RejectsBadSignatureSize) {
  LshIndex index{4, 4};
  const std::vector<std::uint64_t> wrong(7, 0);
  EXPECT_THROW(index.insert(0, wrong), ConfigError);
  EXPECT_THROW((LshIndex{0, 4}), ConfigError);
}

// -------------------------------------------------------------- behavioral

std::vector<sandbox::BehavioralProfile> family_profiles() {
  // Three "families" of profiles: A (4 members), B (3), singleton C.
  std::vector<sandbox::BehavioralProfile> profiles;
  for (int i = 0; i < 4; ++i) {
    sandbox::BehavioralProfile p;
    for (int f = 0; f < 10; ++f) p.add("A" + std::to_string(f));
    p.add("unique-a" + std::to_string(i));  // small per-member variation
    profiles.push_back(std::move(p));
  }
  for (int i = 0; i < 3; ++i) {
    sandbox::BehavioralProfile p;
    for (int f = 0; f < 10; ++f) p.add("B" + std::to_string(f));
    profiles.push_back(std::move(p));
  }
  sandbox::BehavioralProfile c;
  for (int f = 0; f < 10; ++f) c.add("C" + std::to_string(f));
  profiles.push_back(std::move(c));
  return profiles;
}

std::vector<const sandbox::BehavioralProfile*> pointers(
    const std::vector<sandbox::BehavioralProfile>& profiles) {
  std::vector<const sandbox::BehavioralProfile*> out;
  for (const auto& p : profiles) out.push_back(&p);
  return out;
}

TEST(Behavioral, ClustersFamiliesCorrectly) {
  const auto profiles = family_profiles();
  BehavioralOptions options;
  options.threshold = 0.7;
  for (const BackendKind backend : {BackendKind::kExact, BackendKind::kLsh}) {
    options.backend = backend;
    const auto clusters = cluster_profiles(pointers(profiles), options);
    EXPECT_EQ(clusters.cluster_count(), 3u)
        << "backend=" << static_cast<int>(backend);
    EXPECT_EQ(clusters.singleton_count(), 1u);
    // First four profiles together.
    for (int i = 1; i < 4; ++i) {
      EXPECT_EQ(clusters.assignment[0], clusters.assignment[i]);
    }
    EXPECT_NE(clusters.assignment[0], clusters.assignment[4]);
  }
}

TEST(Behavioral, LshMatchesExactOnFamilies) {
  const auto profiles = family_profiles();
  BehavioralOptions exact;
  exact.backend = BackendKind::kExact;
  BehavioralOptions lsh;
  lsh.backend = BackendKind::kLsh;
  EXPECT_EQ(cluster_profiles(pointers(profiles), exact).assignment,
            cluster_profiles(pointers(profiles), lsh).assignment);
}

TEST(Behavioral, ThresholdOneIsExactEquality) {
  auto profiles = family_profiles();
  BehavioralOptions options;
  options.threshold = 1.0;
  options.backend = BackendKind::kExact;
  const auto clusters = cluster_profiles(pointers(profiles), options);
  // Family A members differ by a unique feature -> all split; B
  // members are byte-identical -> merged.
  EXPECT_EQ(clusters.cluster_count(), 6u);
}

TEST(Behavioral, EmptyInput) {
  const auto clusters = cluster_profiles({}, BehavioralOptions{});
  EXPECT_EQ(clusters.cluster_count(), 0u);
}

TEST(Behavioral, NullPointerThrows) {
  std::vector<const sandbox::BehavioralProfile*> bad{nullptr};
  EXPECT_THROW(cluster_profiles(bad, BehavioralOptions{}), ConfigError);
}

TEST(Behavioral, PairStatsLshPrunes) {
  // 40 profiles in 2 tight families: LSH candidates << exact pairs.
  std::vector<sandbox::BehavioralProfile> profiles;
  for (int i = 0; i < 40; ++i) {
    sandbox::BehavioralProfile p;
    const std::string prefix = i < 20 ? "A" : "B";
    for (int f = 0; f < 12; ++f) p.add(prefix + std::to_string(f));
    p.add("u" + std::to_string(i));
    profiles.push_back(std::move(p));
  }
  const auto stats = pair_stats(pointers(profiles), BehavioralOptions{});
  EXPECT_EQ(stats.exact_pairs, 40u * 39u / 2);
  EXPECT_LT(stats.lsh_candidate_pairs, stats.exact_pairs);
  EXPECT_GE(stats.lsh_candidate_pairs, 2u * (20u * 19u / 2));
}

/// Two tight families of near-duplicates — the shape in which a
/// profile meets the same bucket mates in many LSH bands.
std::vector<sandbox::BehavioralProfile> dense_profiles(int per_family) {
  std::vector<sandbox::BehavioralProfile> profiles;
  for (int i = 0; i < 2 * per_family; ++i) {
    sandbox::BehavioralProfile p;
    const std::string prefix = i < per_family ? "A" : "B";
    for (int f = 0; f < 12; ++f) p.add(prefix + std::to_string(f));
    p.add("u" + std::to_string(i));
    profiles.push_back(std::move(p));
  }
  return profiles;
}

TEST(Lsh, InsertReportsEarlierBucketMatesBandByBand) {
  // One row per band, so each signature component is its band's
  // bucket key.
  LshIndex index{2, 1};
  std::vector<std::vector<std::size_t>> mates;
  const auto file = [&](std::size_t item,
                        const std::vector<std::uint64_t>& signature) {
    mates.emplace_back();
    index.insert(item, signature,
                 [&](std::size_t mate) { mates.back().push_back(mate); });
  };
  file(0, {5, 7});
  file(1, {5, 8});
  file(2, {5, 7});
  file(3, {9, 9});
  file(4, {5, 7});
  const std::vector<std::vector<std::size_t>> expected{
      {},               // first in both of its buckets
      {0},              // band 0 only
      {0, 1, 0},        // band 0 holds 0 and 1, band 1 holds 0
      {},               // new buckets in both bands
      {0, 1, 2, 0, 2},  // every earlier mate, once per shared band
  };
  EXPECT_EQ(mates, expected);
  // Without a callback the item is filed all the same.
  index.insert(5, std::vector<std::uint64_t>{9, 1});
  const auto pairs = index.candidate_pairs();
  EXPECT_NE(std::find(pairs.begin(), pairs.end(),
                      std::make_pair<std::size_t, std::size_t>(3, 5)),
            pairs.end());
}

TEST(Behavioral, ClusterIdsDensifiedByFirstMember) {
  // Union-by-size reworked the internal root choice; the public ids
  // must still be densified by first member: each new id is exactly
  // one past the largest id seen so far.
  const auto profiles = family_profiles();
  for (const BackendKind backend :
       {BackendKind::kExact, BackendKind::kLsh, BackendKind::kKmeans}) {
    BehavioralOptions options;
    options.backend = backend;
    const auto clusters = cluster_profiles(pointers(profiles), options);
    ASSERT_FALSE(clusters.assignment.empty());
    EXPECT_EQ(clusters.assignment[0], 0u);
    std::size_t max_seen = 0;
    for (const std::size_t id : clusters.assignment) {
      EXPECT_LE(id, max_seen + 1) << "backend=" << static_cast<int>(backend);
      max_seen = std::max(max_seen, id);
    }
  }
}

TEST(Behavioral, PoolWidthsProduceIdenticalAssignments) {
  const auto profiles = dense_profiles(30);
  BehavioralOptions serial;
  const auto baseline = cluster_profiles(pointers(profiles), serial);
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    ThreadPool pool{width};
    BehavioralOptions pooled = serial;
    pooled.pool = &pool;
    const auto clusters = cluster_profiles(pointers(profiles), pooled);
    EXPECT_EQ(clusters.assignment, baseline.assignment)
        << "width " << width;
  }
}

// ------------------------------------------------------------------ pehash

pe::PeTemplate pehash_template(std::uint32_t content_fill) {
  pe::PeTemplate tmpl;
  tmpl.sections.push_back(pe::SectionSpec{
      ".text", pe::kSectionCode | pe::kSectionExecute,
      std::vector<std::uint8_t>(2000, static_cast<std::uint8_t>(content_fill)),
      false});
  tmpl.sections.push_back(pe::SectionSpec{
      ".data", pe::kSectionInitializedData,
      std::vector<std::uint8_t>(800, 0), true});
  tmpl.imports.push_back(pe::ImportSpec{"KERNEL32.dll", {"Sleep"}});
  return tmpl;
}

TEST(Pehash, PolymorphicInstancesShareHash) {
  // Same structure, different content: the peHash property.
  const auto a = pehash(pe::build_pe(pehash_template(0x11)));
  const auto b = pehash(pe::build_pe(pehash_template(0x22)));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, *b);
}

TEST(Pehash, DifferentStructureDifferentHash) {
  auto tmpl = pehash_template(0x11);
  tmpl.sections[0].name = ".code";
  const auto a = pehash(pe::build_pe(pehash_template(0x11)));
  const auto b = pehash(pe::build_pe(tmpl));
  EXPECT_NE(*a, *b);
}

TEST(Pehash, SizeBandsViaLog2) {
  // Small padding changes stay in the same bucket; doubling leaves it.
  auto tmpl = pehash_template(0x11);
  tmpl.sections[0].content.resize(2040, 0x11);
  EXPECT_EQ(*pehash(pe::build_pe(pehash_template(0x11))),
            *pehash(pe::build_pe(tmpl)));
  tmpl.sections[0].content.resize(9000, 0x11);
  EXPECT_NE(*pehash(pe::build_pe(pehash_template(0x11))),
            *pehash(pe::build_pe(tmpl)));
}

TEST(Pehash, UnparsableIsNullopt) {
  const std::vector<std::uint8_t> junk(100, 0x41);
  EXPECT_FALSE(pehash(junk).has_value());
}

TEST(Pehash, ClusterGroupsEqualHashes) {
  const auto image_a = pe::build_pe(pehash_template(0x11));
  const auto image_b = pe::build_pe(pehash_template(0x22));
  auto other_tmpl = pehash_template(0x33);
  other_tmpl.sections[0].name = ".code";
  const auto image_c = pe::build_pe(other_tmpl);
  const std::vector<std::uint8_t> junk(64, 0x41);
  const auto clusters = pehash_cluster(
      {image_a, image_b, image_c, junk});
  EXPECT_EQ(clusters.cluster_count(), 3u);
  EXPECT_EQ(clusters.assignment[0], clusters.assignment[1]);
  EXPECT_NE(clusters.assignment[0], clusters.assignment[2]);
  EXPECT_NE(clusters.assignment[2], clusters.assignment[3]);
}

// ----------------------------------------------------------------- metrics

TEST(Metrics, PerfectClustering) {
  const std::vector<int> assignment{0, 0, 1, 1, 2};
  const auto metrics = evaluate_clustering(assignment, assignment);
  EXPECT_EQ(metrics.precision, 1.0);
  EXPECT_EQ(metrics.recall, 1.0);
  EXPECT_EQ(metrics.f_measure, 1.0);
  EXPECT_EQ(metrics.pairwise_f1, 1.0);
}

TEST(Metrics, AllMergedHasPerfectRecallPoorPrecision) {
  const std::vector<int> assignment{0, 0, 0, 0};
  const std::vector<int> truth{0, 0, 1, 1};
  const auto metrics = evaluate_clustering(assignment, truth);
  EXPECT_EQ(metrics.recall, 1.0);
  EXPECT_EQ(metrics.precision, 0.5);
  EXPECT_LT(metrics.pairwise_precision, 1.0);
  EXPECT_EQ(metrics.pairwise_recall, 1.0);
}

TEST(Metrics, AllSplitHasPerfectPrecisionPoorRecall) {
  const std::vector<int> assignment{0, 1, 2, 3};
  const std::vector<int> truth{0, 0, 1, 1};
  const auto metrics = evaluate_clustering(assignment, truth);
  EXPECT_EQ(metrics.precision, 1.0);
  EXPECT_EQ(metrics.recall, 0.5);
  EXPECT_EQ(metrics.pairwise_precision, 1.0);
  EXPECT_EQ(metrics.pairwise_recall, 0.0);
}

TEST(Metrics, CountsClusters) {
  const auto metrics =
      evaluate_clustering({0, 1, 1, 2}, {5, 5, 7, 7});
  EXPECT_EQ(metrics.cluster_count, 3u);
  EXPECT_EQ(metrics.reference_count, 2u);
}

TEST(Metrics, ErrorsOnBadInput) {
  EXPECT_THROW((void)evaluate_clustering({0, 1}, {0}), ConfigError);
  EXPECT_THROW((void)evaluate_clustering({}, {}), ConfigError);
}

TEST(Metrics, DegenerateLandscapesStayFiniteAndJsonSafe) {
  // Degenerate landscapes (no same-cluster pairs, no same-truth pairs,
  // or a single item) must yield finite metrics that render as valid
  // JSON tokens — the backend bench feeds these straight into its
  // machine-readable output.
  const auto solo = evaluate_clustering({0, 1, 2}, {3, 4, 5});
  EXPECT_EQ(solo.pairwise_precision, 1.0);
  EXPECT_EQ(solo.pairwise_recall, 1.0);
  EXPECT_TRUE(std::isfinite(solo.pairwise_f1));

  const auto one = evaluate_clustering({0}, {0});
  EXPECT_TRUE(std::isfinite(one.pairwise_f1));
  EXPECT_EQ(json_double(one.pairwise_f1, 4), "1.0000");

  const auto merged = evaluate_clustering({0, 0, 0}, {1, 2, 3});
  EXPECT_TRUE(std::isfinite(merged.pairwise_f1));
  EXPECT_EQ(json_double(merged.pairwise_recall, 4), "1.0000");
}

// ---------------------------------------------------------------- features

TEST(Features, SchemasMatchTable1) {
  EXPECT_EQ(epsilon_schema().size(), 2u);
  EXPECT_EQ(pi_schema().size(), 4u);
  EXPECT_EQ(mu_schema().size(), 11u);
  EXPECT_EQ(dimension_name(Dimension::kEpsilon), "Epsilon");
  EXPECT_EQ(dimension_name(Dimension::kPi), "Pi");
  EXPECT_EQ(dimension_name(Dimension::kMu), "Mu");
}

TEST(Features, MuExtractionFromRealPe) {
  pe::PeTemplate tmpl;
  tmpl.sections.push_back(pe::SectionSpec{
      ".text", pe::kSectionCode, std::vector<std::uint8_t>(100, 0x90), false});
  tmpl.sections.push_back(pe::SectionSpec{
      "rdata", pe::kSectionInitializedData, {}, true});
  tmpl.imports.push_back(
      pe::ImportSpec{"KERNEL32.dll", {"LoadLibraryA", "GetProcAddress"}});
  tmpl.linker_major = 9;
  tmpl.linker_minor = 2;

  const std::vector<std::uint8_t> image = pe::build_pe(tmpl);
  honeypot::MalwareSample sample;
  sample.facts = honeypot::SampleFacts::of(image);
  sample.md5 = "dummy";
  const auto features = extract_mu(sample);
  ASSERT_EQ(features.values.size(), 11u);
  EXPECT_EQ(features.values[0], "dummy");
  EXPECT_EQ(features.values[1], std::to_string(image.size()));
  EXPECT_EQ(features.values[3], "332");   // machine
  EXPECT_EQ(features.values[4], "2");     // nsections
  EXPECT_EQ(features.values[5], "1");     // ndlls
  EXPECT_EQ(features.values[7], "92");    // linker version
  EXPECT_NE(features.values[8].find(".text\\x00\\x00\\x00"),
            std::string::npos);
  EXPECT_EQ(features.values[9], "KERNEL32.dll");
  EXPECT_EQ(features.values[10], "GetProcAddress,LoadLibraryA");  // sorted
}

TEST(Features, MuExtractionFromTruncatedSample) {
  honeypot::MalwareSample sample;
  sample.facts = honeypot::SampleFacts::of(
      std::vector<std::uint8_t>{0x4d, 0x5a, 0x00, 0x01});  // MZ stub only
  sample.md5 = "t";
  const auto features = extract_mu(sample);
  ASSERT_EQ(features.values.size(), 11u);
  EXPECT_EQ(features.values[2], "MS-DOS executable");
  for (std::size_t f = 3; f < 11; ++f) {
    EXPECT_EQ(features.values[f], kNotAvailable) << f;
  }
}

TEST(Features, EpsilonAndPiExtraction) {
  honeypot::AttackEvent event;
  event.epsilon = honeypot::EpsilonObservation{"p445/0.1", 445};
  const auto eps = extract_epsilon(event);
  EXPECT_EQ(eps.values, (std::vector<std::string>{"p445/0.1", "445"}));
  // Without shellcode analysis, pi is all-(n/a).
  EXPECT_EQ(extract_pi(event).values[0], kNotAvailable);
  event.pi = honeypot::PiObservation{"creceive", "", 9988, "PUSH/bind"};
  const auto pi = extract_pi(event);
  EXPECT_EQ(pi.values,
            (std::vector<std::string>{"creceive", "(none)", "9988",
                                      "PUSH/bind"}));
}

// ---------------------------------------------------- pattern key injectivity

TEST(Pattern, KeyEscapesTheFieldDelimiter) {
  // Pre-escaping, both rendered as "a|b|c" and were interned together.
  const Pattern left{{"a|b", "c"}};
  const Pattern right{{"a", "b|c"}};
  EXPECT_EQ(left.key(), "a\\|b|c");
  EXPECT_EQ(right.key(), "a|b\\|c");
  EXPECT_NE(left.key(), right.key());
}

TEST(Pattern, KeyDistinguishesLiteralStarFromWildcard) {
  EXPECT_EQ(Pattern{{std::nullopt}}.key(), "*");
  EXPECT_EQ(Pattern{{"*"}}.key(), "\\*");
  EXPECT_NE(Pattern{{"*"}}.key(), Pattern{{std::nullopt}}.key());
}

TEST(Pattern, KeyEscapesTheEscapeCharacter) {
  // A literal backslash must not be readable as the start of an escape:
  // ("\", wildcard) and ("\*",) must stay apart at any arity, and a
  // lone backslash doubles.
  EXPECT_EQ(Pattern{{"\\"}}.key(), "\\\\");
  EXPECT_EQ(Pattern{{"\\*"}}.key(), "\\\\\\*");
  EXPECT_NE((Pattern{{"\\|", "x"}}.key()), (Pattern{{"\\", "|x"}}.key()));
}

TEST(Epm, DelimiterInValueDoesNotMergeClusters) {
  // Two fully-invariant value combinations whose un-escaped keys
  // collided at "a|b|c" — they must form two clusters, not one.
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> contexts;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({"a|b", "c"});
    contexts.push_back({static_cast<std::uint32_t>(i % 4 + 1),
                        static_cast<std::uint32_t>(i % 4 + 100)});
  }
  for (int i = 0; i < 12; ++i) {
    rows.push_back({"a", "b|c"});
    contexts.push_back({static_cast<std::uint32_t>(i % 4 + 1),
                        static_cast<std::uint32_t>(i % 4 + 100)});
  }
  const auto result = epm_cluster(make_data(rows, contexts));
  ASSERT_EQ(result.cluster_count(), 2u);
  EXPECT_EQ(result.members[0].size(), 12u);
  EXPECT_EQ(result.members[1].size(), 12u);
}

TEST(Epm, LiteralStarValueStaysDistinctFromWildcard) {
  // Group A generalizes to (literal "*", wildcard); group B, all-unique,
  // generalizes to (wildcard, wildcard). Un-escaped, both keys were
  // "*|*" and the 24 rows collapsed into one cluster.
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> contexts;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({"*", "u" + std::to_string(i)});
    contexts.push_back({static_cast<std::uint32_t>(i % 4 + 1),
                        static_cast<std::uint32_t>(i % 4 + 100)});
  }
  for (int i = 0; i < 12; ++i) {
    rows.push_back({"q" + std::to_string(i), "w" + std::to_string(i)});
    contexts.push_back({static_cast<std::uint32_t>(i % 4 + 1),
                        static_cast<std::uint32_t>(i % 4 + 100)});
  }
  const auto result = epm_cluster(make_data(rows, contexts));
  ASSERT_EQ(result.cluster_count(), 2u);
  EXPECT_EQ(result.members[0].size(), 12u);
  EXPECT_EQ(result.members[1].size(), 12u);
}

TEST(Invariants, SortedValuesAreSortedAndBoundsChecked) {
  InvariantTable table{2};
  table.add(0, "zeta");
  table.add(0, "alpha");
  table.add(0, "mid");
  EXPECT_EQ(table.sorted_values(0),
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
  EXPECT_TRUE(table.sorted_values(1).empty());
  EXPECT_THROW((void)table.sorted_values(2), ConfigError);
}

TEST(Behavioral, ExactDuplicatesMergeOnlyUnderTheThreshold) {
  // Many byte-identical profiles: they must merge below/at threshold
  // 1.0 (LSH keeps them in one duplicate class) and stay apart for a
  // pathological threshold above 1.0, where nothing can merge.
  std::vector<sandbox::BehavioralProfile> profiles;
  for (int i = 0; i < 12; ++i) {
    sandbox::BehavioralProfile p;
    for (int f = 0; f < 8; ++f) p.add("dup" + std::to_string(f));
    profiles.push_back(std::move(p));
  }
  sandbox::BehavioralProfile other;
  for (int f = 0; f < 8; ++f) other.add("other" + std::to_string(f));
  profiles.push_back(std::move(other));
  for (const BackendKind backend : {BackendKind::kExact, BackendKind::kLsh}) {
    BehavioralOptions options;
    options.backend = backend;
    const auto merged = cluster_profiles(pointers(profiles), options);
    EXPECT_EQ(merged.cluster_count(), 2u)
        << "backend=" << static_cast<int>(backend);
    for (int i = 1; i < 12; ++i) {
      EXPECT_EQ(merged.assignment[0], merged.assignment[i]);
    }
    options.threshold = 1.5;
    const auto split = cluster_profiles(pointers(profiles), options);
    EXPECT_EQ(split.cluster_count(), profiles.size())
        << "backend=" << static_cast<int>(backend);
  }
}

TEST(Behavioral, RepresentativeSweepMatchesTheOracle) {
  // A duplicate-heavy corpus: one profile copied 150 times is one
  // duplicate class, hashed and filed once; near duplicates
  // (Jaccard 10/11 and 10/12) join it, unrelated profiles stay apart.
  // The suffix past `old_n` adds copies of a prefix class, a new class
  // that joins it, a class new to the suffix, and a profile that
  // bridges two prefix clusters.
  const auto make = [](const std::string& family, int shared,
                       const std::string& extra) {
    sandbox::BehavioralProfile p;
    for (int f = 0; f < shared; ++f) p.add(family + std::to_string(f));
    if (!extra.empty()) p.add(extra);
    return p;
  };
  std::vector<sandbox::BehavioralProfile> profiles;
  for (int i = 0; i < 120; ++i) {
    profiles.push_back(make("allaple", 10, ""));
    if (i % 30 == 0) {
      profiles.push_back(make("allaple", 10, "variant" + std::to_string(i)));
    }
    if (i % 20 == 0) {
      profiles.push_back(make("unrelated" + std::to_string(i) + "-", 10, ""));
    }
  }
  // Jaccard 7/13 apart: two clusters until the bridge arrives.
  sandbox::BehavioralProfile left = make("bridge", 10, "");
  sandbox::BehavioralProfile right = make("bridge", 7, "");
  for (int f = 0; f < 3; ++f) right.add("span" + std::to_string(f));
  sandbox::BehavioralProfile bridge = left;
  for (int f = 0; f < 3; ++f) bridge.add("span" + std::to_string(f));
  profiles.push_back(left);
  profiles.push_back(right);
  const std::size_t old_n = profiles.size();
  for (int i = 0; i < 30; ++i) profiles.push_back(make("allaple", 10, ""));
  profiles.push_back(make("allaple", 10, "late"));
  profiles.push_back(make("fresh", 10, ""));
  profiles.push_back(make("fresh", 10, ""));
  profiles.push_back(bridge);

  const auto ptrs = pointers(profiles);
  const std::vector<const sandbox::BehavioralProfile*> prefix(
      ptrs.begin(), ptrs.begin() + static_cast<std::ptrdiff_t>(old_n));
  const BehavioralClusters oracle = exact_single_linkage(ptrs);
  // allaple with its variants and late joiner, 6 unrelated, fresh, and
  // the bridged pair.
  EXPECT_EQ(oracle.cluster_count(), 9u);
  EXPECT_EQ(oracle.members[0].size(), 155u);
  EXPECT_EQ(oracle.assignment[old_n - 2], oracle.assignment[old_n - 1]);

  std::string metrics_json;
  for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                  std::size_t{8}}) {
    ThreadPool pool{width};
    BehavioralOptions options;
    options.pool = &pool;
    // Epoch-style growth: the suffix is filed into the prefix's linkage.
    LshLinkage linkage{options};
    linkage.extend(prefix);
    const BehavioralClusters first = linkage.clusters();
    EXPECT_NE(first.assignment[old_n - 2], first.assignment[old_n - 1]);
    linkage.extend(ptrs);
    EXPECT_EQ(linkage.clusters().assignment, oracle.assignment)
        << "width " << width;
    obs::MetricsRegistry metrics;
    BehavioralOptions scratch = options;
    scratch.metrics = &metrics;
    EXPECT_EQ(lsh_single_linkage(ptrs, scratch).assignment, oracle.assignment)
        << "width " << width;
    EXPECT_EQ(exact_single_linkage(ptrs, options).assignment,
              oracle.assignment)
        << "width " << width;
    // Every B work count, Jaccard evaluations included, is width-stable.
    const std::string json = metrics.to_json(obs::Channel::kDeterministic);
    EXPECT_NE(json.find("cluster.b.jaccard_evaluations"), std::string::npos);
    if (metrics_json.empty()) metrics_json = json;
    EXPECT_EQ(json, metrics_json) << "width " << width;
  }
}

// --------------------------------------------------------- incremental EPM

honeypot::AttackEvent stream_event(const std::string& path,
                                   std::uint32_t attacker,
                                   std::uint32_t destination,
                                   std::uint16_t port = 445) {
  honeypot::AttackEvent event;
  event.attacker = net::Ipv4{attacker};
  event.honeypot = net::Ipv4{destination};
  event.epsilon = honeypot::EpsilonObservation{path, port};
  return event;
}

/// A stream whose recurring FSM paths cross the relevance thresholds at
/// different points, so invariants flip mid-stream under any split.
std::vector<honeypot::AttackEvent> flip_stream(std::size_t n) {
  Rng rng{11};
  std::vector<honeypot::AttackEvent> events;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string path =
        rng.chance(0.6) ? "path" + std::to_string(rng.index(3))
                        : "unknown/" + std::to_string(i);
    events.push_back(stream_event(
        path, static_cast<std::uint32_t>(rng.index(6) + 1),
        static_cast<std::uint32_t>(rng.index(5) + 100),
        static_cast<std::uint16_t>(rng.chance(0.5) ? 445 : 80)));
  }
  return events;
}

/// Field-level equality of two clusterings. The snapshot codec (and
/// therefore every exported byte) is a pure function of these fields,
/// so field equality here is byte equality downstream.
void expect_same_clustering(const EpmResult& got, const EpmResult& want) {
  ASSERT_EQ(got.patterns.size(), want.patterns.size());
  for (std::size_t i = 0; i < got.patterns.size(); ++i) {
    EXPECT_EQ(got.patterns[i].key(), want.patterns[i].key()) << i;
  }
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.members, want.members);
  EXPECT_EQ(got.event_ids, want.event_ids);
  EXPECT_EQ(got.schema.dimension, want.schema.dimension);
  ASSERT_EQ(got.invariants.feature_count(), want.invariants.feature_count());
  for (std::size_t f = 0; f < got.invariants.feature_count(); ++f) {
    EXPECT_EQ(got.invariants.sorted_values(f),
              want.invariants.sorted_values(f))
        << f;
  }
}

TEST(IncrementalEpm, MatchesTheFullRecomputeAtEverySplit) {
  const auto events = flip_stream(60);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{60}}) {
    honeypot::EventDatabase db;
    IncrementalEpm engine{Dimension::kEpsilon};
    std::size_t next = 0;
    while (next < events.size()) {
      const std::size_t stop = std::min(events.size(), next + chunk);
      for (; next < stop; ++next) db.add_event(events[next]);
      expect_same_clustering(engine.update(db),
                             epm_cluster(build_epsilon_data(db)));
    }
    EXPECT_EQ(engine.events_seen(), events.size()) << "chunk " << chunk;
  }
}

TEST(IncrementalEpm, SkipsEventsWithoutTheDimension) {
  // Pi rows exist only for events whose shellcode analysis succeeded;
  // the engine must skip the others exactly like build_pi_data does.
  std::vector<honeypot::AttackEvent> events;
  for (std::size_t i = 0; i < 40; ++i) {
    auto event = stream_event("p", static_cast<std::uint32_t>(i % 5 + 1),
                              static_cast<std::uint32_t>(i % 4 + 100));
    if (i % 3 != 0) {
      event.pi = honeypot::PiObservation{
          "creceive", i % 2 == 0 ? "" : "f.exe", 9988, "PUSH/bind"};
    }
    events.push_back(std::move(event));
  }
  honeypot::EventDatabase db;
  IncrementalEpm engine{Dimension::kPi};
  for (std::size_t i = 0; i < events.size(); ++i) {
    db.add_event(events[i]);
    if (i % 10 == 9) {
      expect_same_clustering(engine.update(db),
                             epm_cluster(build_pi_data(db)));
    }
  }
}

TEST(IncrementalEpm, CountsFlipTriggeredReclassifications) {
  const auto events = flip_stream(60);
  // One batch: nothing was classified before the flips, so nothing is
  // ever reclassified.
  honeypot::EventDatabase whole;
  for (const auto& event : events) whole.add_event(event);
  IncrementalEpm batch{Dimension::kEpsilon};
  (void)batch.update(whole);
  EXPECT_EQ(batch.instances_reclassified(), 0u);
  // The same stream in small deltas crosses the thresholds mid-stream
  // and re-generalizes earlier rows.
  honeypot::EventDatabase db;
  IncrementalEpm engine{Dimension::kEpsilon};
  std::size_t next = 0;
  while (next < events.size()) {
    const std::size_t stop = std::min(events.size(), next + 6);
    for (; next < stop; ++next) db.add_event(events[next]);
    (void)engine.update(db);
  }
  EXPECT_GT(engine.instances_reclassified(), 0u);
}

TEST(IncrementalEpm, RestoreRecountsFromRows) {
  const auto events = flip_stream(60);
  honeypot::EventDatabase db;
  IncrementalEpm engine{Dimension::kEpsilon};
  for (std::size_t i = 0; i < 30; ++i) db.add_event(events[i]);
  const EpmResult cut = engine.update(db);
  const std::uint64_t reclassified_at_cut = engine.instances_reclassified();
  // The live engine absorbs the tail.
  for (std::size_t i = 30; i < events.size(); ++i) db.add_event(events[i]);
  const EpmResult live = engine.update(db);

  // Resume from the cut: the counts are recounted from the replayed
  // rows, only the reclassification total comes from the cut.
  honeypot::EventDatabase resumed_db;
  for (std::size_t i = 0; i < 30; ++i) resumed_db.add_event(events[i]);
  IncrementalEpm resumed{Dimension::kEpsilon};
  resumed.restore(resumed_db, cut, reclassified_at_cut);
  EXPECT_EQ(resumed.instances_reclassified(), reclassified_at_cut);
  for (std::size_t i = 30; i < events.size(); ++i) {
    resumed_db.add_event(events[i]);
  }
  expect_same_clustering(resumed.update(resumed_db), live);
  EXPECT_EQ(resumed.instances_reclassified(), engine.instances_reclassified());
}

TEST(IncrementalEpm, RestoreRejectsInconsistentState) {
  const auto events = flip_stream(60);
  honeypot::EventDatabase db;
  IncrementalEpm engine{Dimension::kEpsilon};
  for (const auto& event : events) db.add_event(event);
  const EpmResult cut = engine.update(db);

  IncrementalEpm wrong_dimension{Dimension::kPi};
  EXPECT_THROW(wrong_dimension.restore(db, cut, 0), ConfigError);

  // The invariant table disagrees with the recount: one invariant
  // dropped, or a value promoted that never met the thresholds.
  std::size_t invariants = 0;
  for (std::size_t f = 0; f < cut.schema.size(); ++f) {
    invariants += cut.invariants.count(f);
  }
  ASSERT_GT(invariants, 0u);
  for (const bool drop : {true, false}) {
    EpmResult forged = cut;
    forged.invariants = InvariantTable{cut.schema.size()};
    bool dropped = false;
    for (std::size_t f = 0; f < cut.schema.size(); ++f) {
      for (const std::string& value : cut.invariants.sorted_values(f)) {
        if (drop && !dropped) {
          dropped = true;
          continue;
        }
        forged.invariants.add(f, value);
      }
    }
    if (!drop) forged.invariants.add(0, "never-seen");
    IncrementalEpm fresh{Dimension::kEpsilon};
    EXPECT_THROW(fresh.restore(db, forged, 0), ConfigError) << drop;
  }

  // A database that moved past the cut has rows the cut never clustered.
  db.add_event(stream_event("late", 1, 100));
  IncrementalEpm stale{Dimension::kEpsilon};
  EXPECT_THROW(stale.restore(db, cut, 0), ConfigError);
}

TEST(IncrementalEpm, RejectsAShrunkenDatabase) {
  honeypot::EventDatabase big;
  for (const auto& event : flip_stream(10)) big.add_event(event);
  IncrementalEpm engine{Dimension::kEpsilon};
  (void)engine.update(big);
  honeypot::EventDatabase small;
  EXPECT_THROW((void)engine.update(small), ConfigError);
}

}  // namespace
}  // namespace repro::cluster
