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
#include <functional>
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

  /// Files `item` into one bucket per band. Before it joins a band's
  /// bucket, `on_mate` (when set) is called with every item already
  /// in that bucket, band by band in insertion order — so a mate is
  /// reported once per band it shares and is always an earlier item.
  void insert(std::size_t item, std::span<const std::uint64_t> signature,
              const std::function<void(std::size_t)>& on_mate = {});

  /// All distinct candidate pairs (i < j) sharing at least one band
  /// bucket. Materializing the pair set costs O(sum of bucket sizes
  /// squared); clustering uses the insert callback instead.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  candidate_pairs() const;

  [[nodiscard]] std::size_t bands() const noexcept { return bands_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

 private:
  std::size_t bands_;
  std::size_t rows_;
  /// Per band: bucket hash -> items.
  std::vector<std::unordered_map<std::uint64_t, std::vector<std::size_t>>>
      buckets_;
};

}  // namespace repro::cluster
