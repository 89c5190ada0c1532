#include "cluster/behavioral.hpp"

#include <functional>
#include <string>
#include <utility>

#include "cluster/backend.hpp"
#include "cluster/minhash.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace repro::cluster {

namespace {

/// Jaccard over sorted unique id vectors.
double jaccard_ids(const std::vector<std::uint64_t>& a,
                   const std::vector<std::uint64_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t intersection = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++intersection;
      ++i;
      ++j;
    }
  }
  const std::size_t unions = a.size() + b.size() - intersection;
  return unions == 0 ? 1.0
                     : static_cast<double>(intersection) /
                           static_cast<double>(unions);
}

/// Runs fill(begin, end) over [0, count), fanned out over the pool
/// when one is attached.
void fan_out(ThreadPool* pool, std::size_t count,
             const std::function<void(std::size_t, std::size_t)>& fill) {
  if (pool != nullptr) {
    pool->parallel_for(count, 64, fill);
  } else {
    fill(0, count);
  }
}

/// Densifies cluster ids in first-member order: item i sits in the
/// component of union-find node node_of(i).
template <typename NodeOf>
BehavioralClusters densify(detail::UnionFind& groups, std::size_t n,
                           NodeOf node_of) {
  BehavioralClusters result;
  result.assignment.assign(n, -1);
  std::vector<int> root_to_cluster(groups.size(), -1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = groups.find(node_of(i));
    if (root_to_cluster[root] < 0) {
      root_to_cluster[root] = static_cast<int>(result.members.size());
      result.members.emplace_back();
    }
    const int cluster = root_to_cluster[root];
    result.assignment[i] = cluster;
    result.members[static_cast<std::size_t>(cluster)].push_back(i);
  }
  return result;
}

}  // namespace

namespace detail {

std::vector<std::vector<std::uint64_t>> profile_id_sets(
    std::span<const sandbox::BehavioralProfile* const> profiles,
    ThreadPool* pool) {
  std::vector<std::vector<std::uint64_t>> ids(profiles.size());
  fan_out(pool, profiles.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (profiles[i] == nullptr) {
        throw ConfigError("cluster_profiles: null profile pointer");
      }
      ids[i] = profiles[i]->feature_ids();
    }
  });
  return ids;
}

std::vector<std::vector<std::uint64_t>> minhash_signatures(
    std::span<const std::vector<std::uint64_t>> ids, const MinHasher& hasher,
    ThreadPool* pool) {
  std::vector<std::vector<std::uint64_t>> signatures(ids.size());
  fan_out(pool, ids.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      signatures[i] = hasher.signature(ids[i]);
    }
  });
  return signatures;
}

void UnionFind::grow(std::size_t n) {
  while (parent_.size() < n) {
    parent_.push_back(parent_.size());
    size_.push_back(1);
  }
}

std::size_t UnionFind::find(std::size_t x) {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];
    x = parent_[x];
  }
  return x;
}

void UnionFind::unite(std::size_t a, std::size_t b) {
  std::size_t root_a = find(a);
  std::size_t root_b = find(b);
  if (root_a == root_b) return;
  // Union by size: the larger tree's root absorbs the smaller, so find
  // paths stay near-constant even on adversarial unite orders.
  if (size_[root_a] < size_[root_b]) std::swap(root_a, root_b);
  parent_[root_b] = root_a;
  size_[root_a] += size_[root_b];
}

}  // namespace detail

std::size_t BehavioralClusters::singleton_count() const noexcept {
  std::size_t count = 0;
  for (const auto& cluster : members) count += cluster.size() == 1 ? 1 : 0;
  return count;
}

BehavioralClusters cluster_profiles(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  return cluster_backend(options.backend).partition(profiles, options);
}

LshLinkage::LshLinkage(const BehavioralOptions& options)
    : options_(options),
      hasher_(options.lsh_bands * options.lsh_rows, options.seed),
      index_(options.lsh_bands, options.lsh_rows) {}

std::size_t LshLinkage::classify(std::vector<std::uint64_t> ids) {
  const std::size_t fresh = class_ids_.size();
  if (options_.threshold <= 1.0) {
    std::uint64_t hash = 0x84222325cbf29ce4ULL ^ ids.size();
    for (const std::uint64_t id : ids) hash = mix64(hash ^ id);
    std::vector<std::size_t>& candidates = classes_by_hash_[hash];
    for (const std::size_t candidate : candidates) {
      if (class_ids_[candidate] == ids) return candidate;
    }
    candidates.push_back(fresh);
  }
  class_ids_.push_back(std::move(ids));
  return fresh;
}

void LshLinkage::extend(
    const std::vector<const sandbox::BehavioralProfile*>& profiles) {
  const std::size_t old_items = class_of_.size();
  if (profiles.size() < old_items) {
    throw ConfigError("LshLinkage::extend: the profile list shrank from " +
                      std::to_string(old_items) + " to " +
                      std::to_string(profiles.size()));
  }
  std::vector<std::vector<std::uint64_t>> ids = detail::profile_id_sets(
      std::span{profiles}.subspan(old_items), options_.pool);

  // Duplicate classes in index order: a duplicate joins its class, which
  // is one effective union of items.
  const std::size_t old_classes = class_ids_.size();
  for (std::vector<std::uint64_t>& item_ids : ids) {
    class_of_.push_back(classify(std::move(item_ids)));
  }
  const std::size_t new_classes = class_ids_.size() - old_classes;
  std::uint64_t unions = (profiles.size() - old_items) - new_classes;

  const std::vector<std::vector<std::uint64_t>> signatures =
      detail::minhash_signatures(std::span{class_ids_}.subspan(old_classes),
                                 hasher_, options_.pool);
  groups_.grow(class_ids_.size());

  // File each new class serially. A mate can share several bands with
  // it; `met` stamps the mates already tested for the current class.
  // Skipping a pair whose classes already share a root only suppresses
  // edges that are redundant for the connected components.
  constexpr std::size_t kNone = ~std::size_t{0};
  std::vector<std::size_t> met(class_ids_.size(), kNone);
  std::uint64_t pairs = 0;
  std::uint64_t evaluated = 0;
  for (std::size_t c = old_classes; c < class_ids_.size(); ++c) {
    index_.insert(c, signatures[c - old_classes], [&](std::size_t mate) {
      if (met[mate] == c) return;
      met[mate] = c;
      ++pairs;
      if (groups_.find(mate) == groups_.find(c)) return;
      ++evaluated;
      if (jaccard_ids(class_ids_[mate], class_ids_[c]) >= options_.threshold) {
        groups_.unite(mate, c);
        ++unions;
      }
    });
  }
  obs::add_counter(options_.metrics, "cluster.b.signatures", new_classes);
  obs::add_counter(options_.metrics, "cluster.b.bucket_pairs", pairs);
  obs::add_counter(options_.metrics, "cluster.b.jaccard_evaluations",
                   evaluated);
  // Summed over every extend, this is items - clusters.
  obs::add_counter(options_.metrics, "cluster.b.union_ops", unions);
}

BehavioralClusters LshLinkage::clusters() {
  return densify(groups_, class_of_.size(),
                 [this](std::size_t i) { return class_of_[i]; });
}

BehavioralClusters lsh_single_linkage(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  LshLinkage linkage{options};
  linkage.extend(profiles);
  return linkage.clusters();
}

BehavioralClusters exact_single_linkage(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  const std::vector<std::vector<std::uint64_t>> ids =
      detail::profile_id_sets(profiles, options.pool);
  const std::size_t n = ids.size();
  detail::UnionFind groups{n};
  std::uint64_t evaluated = 0;
  std::uint64_t unions = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (groups.find(i) == groups.find(j)) continue;
      ++evaluated;
      if (jaccard_ids(ids[i], ids[j]) >= options.threshold) {
        groups.unite(i, j);
        ++unions;
      }
    }
  }
  obs::add_counter(options.metrics, "cluster.b.exact_pairs",
                   n * (n - 1) / 2);
  obs::add_counter(options.metrics, "cluster.b.jaccard_evaluations",
                   evaluated);
  obs::add_counter(options.metrics, "cluster.b.union_ops", unions);
  return densify(groups, n, [](std::size_t i) { return i; });
}

PairStats pair_stats(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  PairStats stats;
  const std::size_t n = profiles.size();
  stats.exact_pairs = n * (n - 1) / 2;
  const std::vector<std::vector<std::uint64_t>> ids =
      detail::profile_id_sets(profiles, options.pool);
  const MinHasher hasher{options.lsh_bands * options.lsh_rows, options.seed};
  const std::vector<std::vector<std::uint64_t>> signatures =
      detail::minhash_signatures(ids, hasher, options.pool);
  LshIndex index{options.lsh_bands, options.lsh_rows};
  for (std::size_t i = 0; i < n; ++i) index.insert(i, signatures[i]);
  stats.lsh_candidate_pairs = index.candidate_pairs().size();
  return stats;
}

}  // namespace repro::cluster
