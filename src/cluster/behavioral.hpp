// Behavior-based clustering (Anubis / Bayer et al. NDSS'09 substitute).
//
// Groups behavioral profiles by Jaccard similarity under single
// linkage: with a threshold cut, single-linkage clusters are exactly
// the connected components of the "similarity >= t" graph, so the
// implementation unions every qualifying pair. Pair enumeration is
// either exact (all O(n^2) item pairs — the baseline the paper's
// related work criticizes) or LSH-accelerated (the scalable variant
// Anubis uses); both yield the same clusters whenever LSH proposes
// every qualifying pair.
//
// The LSH backend works on duplicate classes, not items: behavioral
// corpora are dominated by byte-identical profiles (one malware
// family, thousands of copies), and a copy adds no edge its class
// does not. `LshLinkage` is that backend's whole state over an
// append-only profile list, so the batch build (one `extend`) and the
// streaming epoch loop (one `extend` per epoch) share one code path.
//
// Parallelism: when a pool is attached, the feature-id and MinHash
// signature passes are distributed over it into per-slot outputs; the
// class assignment and the index filing are serial. Output is
// byte-identical at every pool width, including the serial
// pool == nullptr path.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/minhash.hpp"
#include "sandbox/profile.hpp"

namespace repro {
class ThreadPool;
}  // namespace repro

namespace repro::obs {
class MetricsRegistry;
}  // namespace repro::obs

namespace repro::cluster {

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
/// `lsh_single_linkage` is one LshLinkage::extend plus clusters().
[[nodiscard]] BehavioralClusters lsh_single_linkage(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options = {});
[[nodiscard]] BehavioralClusters exact_single_linkage(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options = {});

namespace detail {
/// Internal seam shared by the backends (cluster/kmeans.cpp reuses the
/// two passes); not a stable API outside src/cluster. Both fan out
/// over `pool` into per-slot outputs when one is attached.
///
/// The sorted feature-id set of every profile. Throws ConfigError on a
/// null profile pointer.
[[nodiscard]] std::vector<std::vector<std::uint64_t>> profile_id_sets(
    std::span<const sandbox::BehavioralProfile* const> profiles,
    ThreadPool* pool);
/// The MinHash signature of every id set.
[[nodiscard]] std::vector<std::vector<std::uint64_t>> minhash_signatures(
    std::span<const std::vector<std::uint64_t>> ids, const MinHasher& hasher,
    ThreadPool* pool);

/// Union-find with union by size and path halving. Which root
/// represents a component is an internal detail: cluster ids are
/// densified by first member, so the output partition is unaffected.
class UnionFind {
 public:
  UnionFind() = default;
  explicit UnionFind(std::size_t n) { grow(n); }
  /// Appends singleton nodes until there are `n`.
  void grow(std::size_t n);
  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }
  [[nodiscard]] std::size_t find(std::size_t x);
  void unite(std::size_t a, std::size_t b);

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
};
}  // namespace detail

/// LSH single linkage over an append-only profile list, keyed on
/// exact-duplicate classes: each class's id set is hashed once, filed
/// once into one LSH index over classes, and tested only against the
/// classes it meets in its buckets while it is filed. A duplicate
/// joins its class and costs one hash lookup.
///
/// Profiles are immutable, so a pair's bucket sharing and Jaccard
/// outcome never change: an edge decided by an earlier `extend` stays
/// decided, and `clusters()` after any sequence of extends equals one
/// extend over the final list (and the exact oracle, whenever LSH
/// proposes every qualifying pair). The batch build calls `extend`
/// once; the streaming epoch loop keeps one linkage and extends it
/// every epoch.
class LshLinkage {
 public:
  /// Takes the threshold, LSH geometry, seed, pool and metrics sink of
  /// `options`; the pool and the sink must outlive the linkage. Above
  /// a threshold of 1.0 nothing may merge, so every profile is its own
  /// class.
  explicit LshLinkage(const BehavioralOptions& options);

  /// Adds `profiles[size()..]`. The first size() entries must be the
  /// profiles of the earlier calls, in order. Throws ConfigError when
  /// the list is shorter than size() or holds a null pointer (the
  /// linkage is unchanged then).
  void extend(const std::vector<const sandbox::BehavioralProfile*>& profiles);

  /// The partition of every profile added so far: dense cluster ids
  /// ordered by first member.
  [[nodiscard]] BehavioralClusters clusters();

  [[nodiscard]] std::size_t size() const noexcept { return class_of_.size(); }
  [[nodiscard]] std::size_t class_count() const noexcept {
    return class_ids_.size();
  }

 private:
  /// The duplicate class of an id set, opening a new class when none
  /// holds it.
  std::size_t classify(std::vector<std::uint64_t> ids);

  BehavioralOptions options_;
  MinHasher hasher_;
  std::vector<std::size_t> class_of_;                  // item -> class
  std::vector<std::vector<std::uint64_t>> class_ids_;  // class -> id set
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> classes_by_hash_;
  LshIndex index_;              // over classes
  detail::UnionFind groups_;    // over classes
};

/// Number of similarity evaluations a run would perform under each
/// strategy — exposed for the scalability ablation bench. Both counts
/// are item pairs: all of them, and those sharing an LSH bucket.
struct PairStats {
  std::size_t exact_pairs = 0;
  std::size_t lsh_candidate_pairs = 0;
};
[[nodiscard]] PairStats pair_stats(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options = {});

}  // namespace repro::cluster
