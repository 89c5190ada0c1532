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

#include <set>
#include <string>
#include <vector>

#include "cluster/backend.hpp"
#include "cluster/behavioral.hpp"
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

// --------------------------------------------------- kmeans contract

TEST(KmeansBackend, PriorAssignmentSeedingThrows) {
  // Seeding from a prefix partition is a single-linkage soundness
  // property; kmeans must refuse it, not silently produce a partition
  // influenced by a stale prior.
  const auto profiles = gapped_corpus(20, 9);
  const auto ptrs = pointers(profiles);
  BehavioralOptions options;
  options.backend = BackendKind::kKmeans;
  const auto first = cluster_profiles(ptrs, options);
  BehavioralOptions seeded = options;
  seeded.prior_assignment = &first.assignment;
  EXPECT_THROW(cluster_profiles(ptrs, seeded), ConfigError);
}

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
