// Behavior-based clustering (Anubis / Bayer et al. NDSS'09 substitute).
//
// Groups behavioral profiles by Jaccard similarity under single
// linkage: with a threshold cut, single-linkage clusters are exactly
// the connected components of the "similarity >= t" graph, so the
// implementation unions every qualifying pair. Pair enumeration is
// either exact (all O(n^2) pairs — the baseline the paper's related
// work criticizes) or LSH-accelerated (the scalable variant Anubis
// uses); both yield the same clusters whenever LSH proposes every
// qualifying pair.
//
// Parallelism: when `BehavioralOptions::pool` is set, the feature-id
// and MinHash signature passes are distributed over the pool into
// per-profile slots; the bucket sweep is serial. Output is
// byte-identical at every pool width, including the serial
// pool == nullptr path.
#pragma once

#include <cstdint>
#include <vector>

#include "sandbox/profile.hpp"

namespace repro {
class ThreadPool;
}  // namespace repro

namespace repro::obs {
class MetricsRegistry;
}  // namespace repro::obs

namespace repro::cluster {

struct SignatureStore;

/// Which clustering algorithm produces the B partition. The enumerator
/// values are mixed into the epoch-cut fingerprint, so renumbering one
/// only makes the existing cuts stale; append instead.
enum class BackendKind : std::uint8_t {
  /// LSH-accelerated single linkage (Bayer et al.) — the default and
  /// the paper-faithful path.
  kLsh = 0,
  /// Exact O(n^2) single linkage — the oracle the LSH path
  /// approximates; identical output whenever LSH proposes every
  /// qualifying pair.
  kExact = 1,
  /// K-means over MinHash-signature coordinates (Basole & Stamp
  /// style hash-derived feature vectors); deterministic seeded init,
  /// fixed iteration cap.
  kKmeans = 2,
};

struct BehavioralOptions {
  /// Jaccard similarity threshold for merging (single-linkage
  /// backends; K-means ignores it).
  double threshold = 0.70;
  /// Clustering algorithm; see cluster/backend.hpp for the registry.
  BackendKind backend = BackendKind::kLsh;
  std::size_t lsh_bands = 20;
  std::size_t lsh_rows = 5;
  std::uint64_t seed = 0x6c5b'0001;
  /// K-means: cluster count; 0 derives floor(sqrt(n)) from the
  /// profile count.
  std::size_t kmeans_k = 0;
  /// K-means: Lloyd iteration cap (stops earlier when the integer
  /// assignment reaches a fixed point).
  std::size_t kmeans_iterations = 16;
  /// Optional worker pool (non-owning). Parallelizes the feature-id
  /// and MinHash signature passes; clusters are identical at any width.
  ThreadPool* pool = nullptr;
  /// Optional metrics sink (non-owning). Every work count (signatures,
  /// bucket pairs, Jaccard evaluations, union operations) is a pure
  /// function of the input and options and lands on the deterministic
  /// channel.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional cross-call signature cache (non-owning). The streaming
  /// epoch loop sets this so only profiles appended since the previous
  /// epoch are hashed; signatures of the unchanged prefix are reused.
  /// The cache never changes the produced clusters — buckets and the
  /// union-find are rebuilt from the (identical) signatures either way.
  SignatureStore* signature_cache = nullptr;
  /// Optional prior partition (non-owning): the `assignment` produced
  /// by an earlier call over a strict prefix of this profile list with
  /// identical options (threshold, LSH geometry, seed). Because
  /// profiles are immutable and appended-only, two old items land in a
  /// common bucket this call iff they did in the prior one and their
  /// Jaccard outcome is unchanged — so every old/old edge is already
  /// reflected in the prior partition. The union-find is seeded from
  /// it and only pairs touching an appended item are evaluated. The
  /// produced partition is identical to a from-scratch run; callers
  /// that cannot guarantee the prefix/options contract must leave this
  /// null. Ignored when its size exceeds the profile count.
  ///
  /// Soundness is a single-linkage property (old/old edges survive
  /// appends only under connected-component semantics) — attaching a
  /// prior partition to a non-single-linkage backend (kmeans) throws
  /// ConfigError instead of silently reusing a stale partition.
  const std::vector<int>* prior_assignment = nullptr;
};

struct BehavioralClusters {
  /// Profile index -> cluster id (0-based, dense, ordered by first
  /// member).
  std::vector<int> assignment;
  /// Cluster id -> member profile indices (ascending).
  std::vector<std::vector<std::size_t>> members;

  [[nodiscard]] std::size_t cluster_count() const noexcept {
    return members.size();
  }
  [[nodiscard]] std::size_t singleton_count() const noexcept;
};

/// Clusters the given profiles with the backend selected by
/// `options.backend` (dispatched through the cluster/backend.hpp
/// registry). Profile order defines index identity.
[[nodiscard]] BehavioralClusters cluster_profiles(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options = {});

/// Direct entry points of the two single-linkage backends —
/// `cluster_profiles` with `options.backend` forced; exposed so the
/// oracle comparison in benches/tests does not depend on the registry.
[[nodiscard]] BehavioralClusters lsh_single_linkage(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options = {});
[[nodiscard]] BehavioralClusters exact_single_linkage(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options = {});

namespace detail {
/// Internal seam shared by the backends (cluster/kmeans.cpp reuses the
/// same cache-honoring passes): the sorted feature-id sets of
/// `profiles`, and their MinHash signatures. With an attached
/// signature cache the store is the backing storage and only appended
/// items are (re)computed; otherwise `scratch` holds the result. Not a
/// stable API outside src/cluster.
[[nodiscard]] const std::vector<std::vector<std::uint64_t>>& profile_id_sets(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options,
    std::vector<std::vector<std::uint64_t>>& scratch);
[[nodiscard]] const std::vector<std::vector<std::uint64_t>>&
minhash_signatures(const std::vector<std::vector<std::uint64_t>>& ids,
                   const BehavioralOptions& options,
                   std::vector<std::vector<std::uint64_t>>& scratch);
}  // namespace detail

/// Number of similarity evaluations a run would perform under each
/// strategy — exposed for the scalability ablation bench.
struct PairStats {
  std::size_t exact_pairs = 0;
  std::size_t lsh_candidate_pairs = 0;
};
[[nodiscard]] PairStats pair_stats(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options = {});

/// Clusters and pair statistics from one shared MinHash signature
/// pass. Calling cluster_profiles + pair_stats separately computes
/// every signature twice; this computes them once and derives both
/// artifacts from the same index.
struct ClusteringRun {
  BehavioralClusters clusters;
  PairStats stats;
};
[[nodiscard]] ClusteringRun cluster_profiles_with_stats(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options = {});

}  // namespace repro::cluster
