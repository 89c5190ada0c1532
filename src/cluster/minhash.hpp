// MinHash signatures and LSH banding.
//
// Bayer et al. (NDSS'09) make behavioral clustering scale by avoiding
// the O(n^2) distance matrix: locality-sensitive hashing over MinHash
// signatures proposes only the pairs likely to exceed the Jaccard
// threshold. This is a faithful reimplementation: k = bands x rows
// min-wise hashes per profile; two profiles are candidates if any band
// of their signatures collides.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace repro::cluster {

class MinHasher {
 public:
  /// `hash_count` independent min-wise hash functions derived from the
  /// seed.
  MinHasher(std::size_t hash_count, std::uint64_t seed);

  /// Signature of a feature-id set (ids need not be sorted).
  [[nodiscard]] std::vector<std::uint64_t> signature(
      std::span<const std::uint64_t> feature_ids) const;

  [[nodiscard]] std::size_t hash_count() const noexcept {
    return salts_.size();
  }

  /// Fraction of equal components — an unbiased Jaccard estimate.
  [[nodiscard]] static double estimate_similarity(
      std::span<const std::uint64_t> a, std::span<const std::uint64_t> b);

 private:
  std::vector<std::uint64_t> salts_;
};

/// Banded LSH index over MinHash signatures.
class LshIndex {
 public:
  /// Signatures must have exactly bands*rows components.
  LshIndex(std::size_t bands, std::size_t rows);

  void insert(std::size_t item, std::span<const std::uint64_t> signature);

  /// All distinct candidate pairs (i < j) sharing at least one band
  /// bucket. Materializing the pair set costs O(sum of bucket sizes
  /// squared); prefer multi_item_buckets() for clustering, where the
  /// union-find short-circuits most of that work.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  candidate_pairs() const;

  /// The distinct item lists of every bucket holding 2+ items, across
  /// all bands, in deterministic order (lexicographic — i.e. by
  /// smallest member, with a stable tie-break): identical member lists
  /// arising in several bands are returned once. A pair of similar
  /// items can still appear in multiple *distinct* buckets; the
  /// consumer deduplicates those cheaply, e.g. via union-find.
  [[nodiscard]] std::vector<std::vector<std::size_t>> multi_item_buckets()
      const;

  [[nodiscard]] std::size_t bands() const noexcept { return bands_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

 private:
  std::size_t bands_;
  std::size_t rows_;
  /// Per band: bucket hash -> items.
  std::vector<std::unordered_map<std::uint64_t, std::vector<std::size_t>>>
      buckets_;
};

/// Cross-epoch MinHash signature cache. A signature is a pure function
/// of one item's feature-id set, so when the item list only grows
/// between clustering passes (the streaming epoch loop appends
/// profiles, never mutates them) the cached prefix can be reused
/// verbatim and only new items need hashing. Items are identified
/// positionally; `config` pins the (bands, rows, seed) the signatures
/// were computed under — any mismatch or a shrunk item list resets the
/// cache. The store is process-local and never persisted: a resumed
/// epoch loop starts empty and its first pass hashes the restored
/// prefix once. `reused`/`computed` count this process's passes only.
struct SignatureStore {
  std::uint64_t config = 0;  // 0 = unconfigured
  std::vector<std::vector<std::uint64_t>> signatures;
  std::uint64_t reused = 0;
  std::uint64_t computed = 0;
  /// Positional cache of the per-item sorted feature-id sets the
  /// signatures are derived from, under the same append-only identity.
  std::vector<std::vector<std::uint64_t>> id_sets;
};

/// Mixes (bands, rows, seed) into a non-zero configuration id.
[[nodiscard]] std::uint64_t signature_config(std::size_t bands,
                                             std::size_t rows,
                                             std::uint64_t seed);

}  // namespace repro::cluster
