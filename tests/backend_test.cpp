// Conformance suite for the pluggable B-clustering backends.
//
// Every backend registered in cluster/backend.hpp must honor the same
// contract: a dense first-member-ordered partition, byte-identical
// output at every pool width (1/2/8), well-defined behavior on empty,
// singleton and duplicate inputs, and sane threshold edges for the
// single-linkage pair. The LSH backend must additionally reproduce
// the exact single-linkage oracle on corpora whose pair similarities
// are bounded away from the threshold.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/backend.hpp"
#include "cluster/behavioral.hpp"
#include "obs/metrics.hpp"
#include "sandbox/profile.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace repro::cluster {
namespace {

std::vector<const sandbox::BehavioralProfile*> pointers(
    const std::vector<sandbox::BehavioralProfile>& profiles) {
  std::vector<const sandbox::BehavioralProfile*> out;
  out.reserve(profiles.size());
  for (const auto& p : profiles) out.push_back(&p);
  return out;
}

/// Planted families with similarities far from the 0.7 threshold:
/// members share 14 features and differ in at most one extra
/// (Jaccard >= 14/16 = 0.875), cross-family pairs are disjoint.
std::vector<sandbox::BehavioralProfile> gapped_corpus(std::size_t n,
                                                      std::uint64_t seed) {
  Rng rng{seed};
  std::vector<sandbox::BehavioralProfile> profiles;
  profiles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sandbox::BehavioralProfile profile;
    const std::size_t family = rng.index(6);
    for (int f = 0; f < 14; ++f) {
      profile.add("fam" + std::to_string(family) + "-" + std::to_string(f));
    }
    if (rng.chance(0.5)) profile.add("extra-" + rng.alnum(6));
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

/// Dense first-member ordering: ids start at 0 and each new id is one
/// past the largest seen so far; members round-trip the assignment.
void expect_dense_partition(const BehavioralClusters& clusters,
                            std::size_t item_count) {
  ASSERT_EQ(clusters.assignment.size(), item_count);
  int max_seen = -1;
  for (const int id : clusters.assignment) {
    ASSERT_GE(id, 0);
    ASSERT_LE(id, max_seen + 1);
    if (id > max_seen) max_seen = id;
  }
  ASSERT_EQ(static_cast<std::size_t>(max_seen + 1),
            clusters.cluster_count());
  std::size_t member_total = 0;
  for (std::size_t cluster = 0; cluster < clusters.members.size();
       ++cluster) {
    ASSERT_FALSE(clusters.members[cluster].empty());
    for (const std::size_t row : clusters.members[cluster]) {
      ASSERT_LT(row, item_count);
      ASSERT_EQ(clusters.assignment[row], static_cast<int>(cluster));
    }
    member_total += clusters.members[cluster].size();
  }
  ASSERT_EQ(member_total, item_count);
}

class BackendConformance : public ::testing::TestWithParam<BackendKind> {
 protected:
  [[nodiscard]] BehavioralOptions options() const {
    BehavioralOptions opts;
    opts.backend = GetParam();
    return opts;
  }
};

TEST_P(BackendConformance, RegistryRoundTrip) {
  const ClusterBackend& backend = cluster_backend(GetParam());
  EXPECT_EQ(backend.kind(), GetParam());
  EXPECT_EQ(backend_from_name(backend.name()).kind(), GetParam());
  EXPECT_EQ(backend_name(GetParam()), backend.name());
}

TEST_P(BackendConformance, EmptyInput) {
  const auto clusters = cluster_profiles({}, options());
  EXPECT_EQ(clusters.cluster_count(), 0u);
  EXPECT_TRUE(clusters.assignment.empty());
}

TEST_P(BackendConformance, SingletonInput) {
  std::vector<sandbox::BehavioralProfile> profiles(1);
  profiles[0].add("only-feature");
  const auto clusters = cluster_profiles(pointers(profiles), options());
  expect_dense_partition(clusters, 1);
  EXPECT_EQ(clusters.cluster_count(), 1u);
  EXPECT_EQ(clusters.singleton_count(), 1u);
}

TEST_P(BackendConformance, DuplicateProfilesShareACluster) {
  // Byte-identical profiles have distance 0 under every backend's
  // notion of similarity — they must never split.
  std::vector<sandbox::BehavioralProfile> profiles;
  for (int i = 0; i < 6; ++i) {
    sandbox::BehavioralProfile p;
    for (int f = 0; f < 9; ++f) p.add("dup-" + std::to_string(f));
    profiles.push_back(std::move(p));
  }
  const auto clusters = cluster_profiles(pointers(profiles), options());
  expect_dense_partition(clusters, profiles.size());
  for (const int id : clusters.assignment) {
    EXPECT_EQ(id, clusters.assignment[0]);
  }
}

TEST_P(BackendConformance, DensePartitionOnMixedCorpus) {
  const auto profiles = gapped_corpus(72, 11);
  const auto clusters = cluster_profiles(pointers(profiles), options());
  expect_dense_partition(clusters, profiles.size());
}

TEST_P(BackendConformance, PoolWidthsProduceIdenticalAssignments) {
  const auto profiles = gapped_corpus(72, 23);
  const auto ptrs = pointers(profiles);
  const auto serial = cluster_profiles(ptrs, options());
  for (const std::size_t width : {2u, 8u}) {
    ThreadPool pool{width};
    BehavioralOptions wide = options();
    wide.pool = &pool;
    EXPECT_EQ(cluster_profiles(ptrs, wide).assignment, serial.assignment)
        << "backend=" << backend_name(GetParam()) << " width=" << width;
  }
}

TEST_P(BackendConformance, RepeatedRunsAreDeterministic) {
  const auto profiles = gapped_corpus(48, 37);
  const auto ptrs = pointers(profiles);
  const auto first = cluster_profiles(ptrs, options());
  const auto second = cluster_profiles(ptrs, options());
  EXPECT_EQ(first.assignment, second.assignment);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformance,
    ::testing::Values(BackendKind::kLsh, BackendKind::kExact,
                      BackendKind::kKmeans),
    [](const ::testing::TestParamInfo<BackendKind>& param_info) {
      return std::string{backend_name(param_info.param)};
    });

// ------------------------------------------- single-linkage edges

class SingleLinkageEdges : public ::testing::TestWithParam<BackendKind> {};

TEST_P(SingleLinkageEdges, ThresholdOneMergesOnlyExactDuplicates) {
  std::vector<sandbox::BehavioralProfile> profiles;
  for (int i = 0; i < 3; ++i) {
    sandbox::BehavioralProfile p;
    for (int f = 0; f < 8; ++f) p.add("same-" + std::to_string(f));
    profiles.push_back(std::move(p));
  }
  sandbox::BehavioralProfile near;
  for (int f = 0; f < 7; ++f) near.add("same-" + std::to_string(f));
  near.add("almost");
  profiles.push_back(std::move(near));
  BehavioralOptions options;
  options.backend = GetParam();
  options.threshold = 1.0;
  const auto clusters = cluster_profiles(pointers(profiles), options);
  EXPECT_EQ(clusters.cluster_count(), 2u);
  EXPECT_EQ(clusters.singleton_count(), 1u);
}

TEST_P(SingleLinkageEdges, ThresholdAboveOneSplitsEverything) {
  const auto profiles = gapped_corpus(24, 5);
  BehavioralOptions options;
  options.backend = GetParam();
  options.threshold = 1.5;
  const auto clusters = cluster_profiles(pointers(profiles), options);
  EXPECT_EQ(clusters.cluster_count(), profiles.size());
}

INSTANTIATE_TEST_SUITE_P(
    SingleLinkage, SingleLinkageEdges,
    ::testing::Values(BackendKind::kLsh, BackendKind::kExact),
    [](const ::testing::TestParamInfo<BackendKind>& param_info) {
      return std::string{backend_name(param_info.param)};
    });

// ------------------------------------------------ oracle agreement

TEST(BackendAgreement, LshMatchesExactOnGappedCorpora) {
  // LSH is probabilistic near the threshold; on corpora with pair
  // similarities bounded away from 0.7 it must equal the oracle.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto profiles = gapped_corpus(80, seed);
    const auto ptrs = pointers(profiles);
    EXPECT_EQ(lsh_single_linkage(ptrs).assignment,
              exact_single_linkage(ptrs).assignment)
        << "seed=" << seed;
  }
}

// ------------------------------------------------ stepwise linkage

/// Two tight families of near-duplicates (Jaccard 12/14 within a
/// family, 0 across) in which member i carries tag i % 7, so members
/// with equal tags are exact duplicates.
std::vector<sandbox::BehavioralProfile> dense_corpus(std::size_t n) {
  std::vector<sandbox::BehavioralProfile> profiles;
  for (std::size_t i = 0; i < n; ++i) {
    sandbox::BehavioralProfile profile;
    const std::string family = i % 2 == 0 ? "A" : "B";
    for (int f = 0; f < 12; ++f) profile.add(family + std::to_string(f));
    profile.add("tag" + std::to_string(i % 7));
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

std::uint64_t counter_of(const obs::MetricsRegistry& metrics,
                         std::string_view name) {
  for (const auto& [counter, value] :
       metrics.counter_values(obs::Channel::kDeterministic)) {
    if (counter == name) return value;
  }
  return 0;
}

std::size_t distinct_id_sets(
    const std::vector<sandbox::BehavioralProfile>& profiles) {
  std::set<std::vector<std::uint64_t>> sets;
  for (const auto& profile : profiles) sets.insert(profile.feature_ids());
  return sets.size();
}

TEST(LshLinkage, StepwiseExtendsMatchOneCallAndTheOracle) {
  // The same list grown in steps split at random epoch points (repeats
  // included, which extend by nothing) must give, after every step,
  // what one call over that prefix gives — and at the end, the exact
  // oracle's partition, at every pool width.
  Rng rng{28};
  const std::vector<std::vector<sandbox::BehavioralProfile>> corpora{
      gapped_corpus(120, 7), dense_corpus(90)};
  for (const auto& profiles : corpora) {
    const auto ptrs = pointers(profiles);
    const BehavioralClusters oracle = exact_single_linkage(ptrs);
    const std::size_t classes = distinct_id_sets(profiles);
    ASSERT_LT(classes, profiles.size());
    for (const std::size_t width :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ThreadPool pool{width};
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<std::size_t> cuts;
        for (int k = 0; k < 3; ++k) cuts.push_back(rng.index(ptrs.size() + 1));
        std::sort(cuts.begin(), cuts.end());
        cuts.push_back(ptrs.size());
        obs::MetricsRegistry metrics;
        BehavioralOptions options;
        options.pool = &pool;
        options.metrics = &metrics;
        LshLinkage linkage{options};
        for (const std::size_t cut : cuts) {
          const std::vector<const sandbox::BehavioralProfile*> prefix(
              ptrs.begin(), ptrs.begin() + static_cast<std::ptrdiff_t>(cut));
          linkage.extend(prefix);
          EXPECT_EQ(linkage.size(), cut);
          EXPECT_EQ(linkage.clusters().assignment,
                    lsh_single_linkage(prefix).assignment)
              << "cut " << cut << ", width " << width;
        }
        EXPECT_EQ(linkage.clusters().assignment, oracle.assignment)
            << "width " << width;
        // Each duplicate class is hashed once over all the steps, and
        // the unions add up to items - clusters.
        EXPECT_EQ(linkage.class_count(), classes);
        EXPECT_EQ(counter_of(metrics, "cluster.b.signatures"), classes);
        EXPECT_EQ(counter_of(metrics, "cluster.b.union_ops"),
                  profiles.size() - oracle.cluster_count());
      }
    }
  }
}

TEST(LshLinkage, RejectsAShrunkListOrANullProfile) {
  const auto profiles = dense_corpus(30);
  const auto ptrs = pointers(profiles);
  LshLinkage linkage{BehavioralOptions{}};
  linkage.extend(ptrs);
  const BehavioralClusters before = linkage.clusters();
  const std::vector<const sandbox::BehavioralProfile*> shrunk(
      ptrs.begin(), ptrs.begin() + 10);
  EXPECT_THROW(linkage.extend(shrunk), ConfigError);
  std::vector<const sandbox::BehavioralProfile*> with_null = ptrs;
  with_null.push_back(nullptr);
  EXPECT_THROW(linkage.extend(with_null), ConfigError);
  // A refused extend leaves the linkage as it was.
  EXPECT_EQ(linkage.size(), ptrs.size());
  EXPECT_EQ(linkage.clusters().assignment, before.assignment);
}

TEST(LshLinkage, ThresholdAboveOneKeepsDuplicatesApartWhenGrown) {
  const auto profiles = dense_corpus(40);
  const auto ptrs = pointers(profiles);
  BehavioralOptions options;
  options.threshold = 1.5;
  LshLinkage linkage{options};
  for (const std::size_t cut : {std::size_t{9}, std::size_t{25},
                                profiles.size()}) {
    linkage.extend(
        {ptrs.begin(), ptrs.begin() + static_cast<std::ptrdiff_t>(cut)});
  }
  EXPECT_EQ(linkage.class_count(), profiles.size());
  EXPECT_EQ(linkage.clusters().cluster_count(), profiles.size());
}

// --------------------------------------------------- kmeans contract

TEST(KmeansBackend, RespectsRequestedK) {
  const auto profiles = gapped_corpus(60, 13);
  BehavioralOptions options;
  options.backend = BackendKind::kKmeans;
  options.kmeans_k = 4;
  const auto clusters = cluster_profiles(pointers(profiles), options);
  expect_dense_partition(clusters, profiles.size());
  EXPECT_LE(clusters.cluster_count(), 4u);
  EXPECT_GE(clusters.cluster_count(), 1u);
}

TEST(KmeansBackend, KIsClampedToItemCount) {
  std::vector<sandbox::BehavioralProfile> profiles(3);
  for (int i = 0; i < 3; ++i) {
    profiles[static_cast<std::size_t>(i)].add("p" + std::to_string(i));
  }
  BehavioralOptions options;
  options.backend = BackendKind::kKmeans;
  options.kmeans_k = 64;
  const auto clusters = cluster_profiles(pointers(profiles), options);
  expect_dense_partition(clusters, profiles.size());
  EXPECT_LE(clusters.cluster_count(), 3u);
}

TEST(KmeansBackend, SeparatesDisjointFamilies) {
  // Three fully disjoint families and k = 3: the farthest-point init
  // lands one centroid per family, so the partition must recover
  // them exactly.
  std::vector<sandbox::BehavioralProfile> profiles;
  std::vector<int> truth;
  for (int family = 0; family < 3; ++family) {
    for (int i = 0; i < 8; ++i) {
      sandbox::BehavioralProfile p;
      for (int f = 0; f < 12; ++f) {
        p.add("fam" + std::to_string(family) + "-" + std::to_string(f));
      }
      profiles.push_back(std::move(p));
      truth.push_back(family);
    }
  }
  BehavioralOptions options;
  options.backend = BackendKind::kKmeans;
  options.kmeans_k = 3;
  const auto clusters = cluster_profiles(pointers(profiles), options);
  EXPECT_EQ(clusters.cluster_count(), 3u);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (std::size_t j = i + 1; j < profiles.size(); ++j) {
      EXPECT_EQ(clusters.assignment[i] == clusters.assignment[j],
                truth[i] == truth[j])
          << "rows " << i << "," << j;
    }
  }
}

// ------------------------------------------------ registry errors

TEST(BackendRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)backend_from_name("agglomerative"), ConfigError);
  EXPECT_THROW((void)backend_from_name(""), ConfigError);
}

TEST(BackendRegistry, AllBackendsListsEveryKind) {
  std::set<BackendKind> kinds;
  for (const BackendKind kind : all_backends()) kinds.insert(kind);
  EXPECT_EQ(kinds.size(), 3u);
  EXPECT_TRUE(kinds.count(BackendKind::kLsh));
  EXPECT_TRUE(kinds.count(BackendKind::kExact));
  EXPECT_TRUE(kinds.count(BackendKind::kKmeans));
}

}  // namespace
}  // namespace repro::cluster
