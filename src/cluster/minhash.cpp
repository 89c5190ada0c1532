#include "cluster/minhash.hpp"

#include <algorithm>
#include <set>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace repro::cluster {

MinHasher::MinHasher(std::size_t hash_count, std::uint64_t seed) {
  if (hash_count == 0) {
    throw ConfigError("MinHasher: hash_count must be positive");
  }
  Rng rng{mix64(seed ^ 0x3147'4a54'0000'0000ULL)};
  salts_.reserve(hash_count);
  for (std::size_t i = 0; i < hash_count; ++i) salts_.push_back(rng.next());
}

std::vector<std::uint64_t> MinHasher::signature(
    std::span<const std::uint64_t> feature_ids) const {
  std::vector<std::uint64_t> out(salts_.size(), ~std::uint64_t{0});
  for (const std::uint64_t id : feature_ids) {
    for (std::size_t h = 0; h < salts_.size(); ++h) {
      const std::uint64_t hashed = mix64(id ^ salts_[h]);
      out[h] = std::min(out[h], hashed);
    }
  }
  return out;
}

double MinHasher::estimate_similarity(std::span<const std::uint64_t> a,
                                      std::span<const std::uint64_t> b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  std::size_t equal = 0;
  for (std::size_t i = 0; i < a.size(); ++i) equal += a[i] == b[i] ? 1 : 0;
  return static_cast<double>(equal) / static_cast<double>(a.size());
}

LshIndex::LshIndex(std::size_t bands, std::size_t rows)
    : bands_(bands), rows_(rows), buckets_(bands) {
  if (bands == 0 || rows == 0) {
    throw ConfigError("LshIndex: bands and rows must be positive");
  }
}

void LshIndex::insert(std::size_t item,
                      std::span<const std::uint64_t> signature,
                      const std::function<void(std::size_t)>& on_mate) {
  if (signature.size() != bands_ * rows_) {
    throw ConfigError("LshIndex::insert: signature size mismatch");
  }
  for (std::size_t band = 0; band < bands_; ++band) {
    std::uint64_t bucket = 0xcbf29ce484222325ULL ^ band;
    for (std::size_t r = 0; r < rows_; ++r) {
      bucket = mix64(bucket ^ signature[band * rows_ + r]);
    }
    std::vector<std::size_t>& items = buckets_[band][bucket];
    if (on_mate) {
      for (const std::size_t mate : items) on_mate(mate);
    }
    items.push_back(item);
  }
}

std::vector<std::pair<std::size_t, std::size_t>> LshIndex::candidate_pairs()
    const {
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& band : buckets_) {
    for (const auto& [bucket, items] : band) {
      for (std::size_t i = 0; i < items.size(); ++i) {
        for (std::size_t j = i + 1; j < items.size(); ++j) {
          const std::size_t a = std::min(items[i], items[j]);
          const std::size_t b = std::max(items[i], items[j]);
          if (a != b) pairs.emplace(a, b);
        }
      }
    }
  }
  return {pairs.begin(), pairs.end()};
}

}  // namespace repro::cluster
