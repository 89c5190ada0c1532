#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/minhash.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace repro::cluster {

namespace {

/// Squared Euclidean distance between one point and one centroid, both
/// `dims` doubles long. Serial accumulation in component order — the
/// same order at every pool width.
double squared_distance(const double* point, const double* centroid,
                        std::size_t dims) {
  double sum = 0.0;
  for (std::size_t d = 0; d < dims; ++d) {
    const double delta = point[d] - centroid[d];
    sum += delta * delta;
  }
  return sum;
}

/// floor(sqrt(n)) without touching floating point.
std::size_t integer_sqrt(std::size_t n) {
  std::size_t root = 0;
  while ((root + 1) * (root + 1) <= n) ++root;
  return root;
}

}  // namespace

BehavioralClusters kmeans_cluster(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options) {
  const std::vector<std::vector<std::uint64_t>> ids =
      detail::profile_id_sets(profiles, options.pool);
  const std::size_t n = ids.size();
  BehavioralClusters result;
  if (n == 0) return result;

  const MinHasher hasher{options.lsh_bands * options.lsh_rows, options.seed};
  const std::vector<std::vector<std::uint64_t>> signatures =
      detail::minhash_signatures(ids, hasher, options.pool);
  obs::add_counter(options.metrics, "cluster.b.signatures", n);
  const std::size_t dims = options.lsh_bands * options.lsh_rows;

  // Each signature component, mapped into [0, 1), is one coordinate.
  // The top 53 bits feed the mantissa so the mapping is exact and
  // platform-independent.
  std::vector<double> coords(n * dims);
  const auto materialize = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t d = 0; d < dims; ++d) {
        coords[i * dims + d] =
            static_cast<double>(signatures[i][d] >> 11) * 0x1.0p-53;
      }
    }
  };
  if (options.pool != nullptr) {
    options.pool->parallel_for(n, 64, materialize);
  } else {
    materialize(0, n);
  }

  const std::size_t requested =
      options.kmeans_k != 0 ? options.kmeans_k : integer_sqrt(n);
  const std::size_t k_max = std::min(std::max<std::size_t>(1, requested), n);
  std::size_t distance_evals = 0;

  // Greedy farthest-point seeding: one Rng draw picks the first
  // centroid, each next centroid is the point farthest from the chosen
  // set (strict > with lowest-index tie-break — deterministic). When
  // the farthest remaining point coincides with a chosen centroid the
  // corpus has fewer than k_max distinct points and seeding stops.
  Rng rng{options.seed};
  std::vector<double> centroids;
  centroids.reserve(k_max * dims);
  std::vector<double> nearest(n);
  const std::size_t first = rng.index(n);
  centroids.insert(centroids.end(), coords.begin() + first * dims,
                   coords.begin() + (first + 1) * dims);
  for (std::size_t i = 0; i < n; ++i) {
    nearest[i] = squared_distance(&coords[i * dims], centroids.data(), dims);
  }
  distance_evals += n;
  std::size_t k = 1;
  while (k < k_max) {
    std::size_t farthest = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (nearest[i] > nearest[farthest]) farthest = i;
    }
    if (nearest[farthest] <= 0.0) break;
    centroids.insert(centroids.end(), coords.begin() + farthest * dims,
                     coords.begin() + (farthest + 1) * dims);
    ++k;
    const double* added = &centroids[(k - 1) * dims];
    for (std::size_t i = 0; i < n; ++i) {
      const double distance = squared_distance(&coords[i * dims], added, dims);
      if (distance < nearest[i]) nearest[i] = distance;
    }
    distance_evals += n;
  }

  // Lloyd iterations, capped. The assignment step reads the previous
  // iteration's centroids and writes disjoint per-item slots (pool
  // fan-out is width-invariant); the centroid update is a serial
  // reduction in index order. Convergence is an integer fixed point —
  // no floating-point equality anywhere.
  std::vector<int> assign(n, 0);
  std::vector<int> previous(n, -1);
  const std::size_t cap = std::max<std::size_t>(1, options.kmeans_iterations);
  std::size_t iterations = 0;
  while (iterations < cap) {
    const auto assign_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        std::size_t best = 0;
        double best_distance =
            squared_distance(&coords[i * dims], &centroids[0], dims);
        for (std::size_t c = 1; c < k; ++c) {
          const double distance =
              squared_distance(&coords[i * dims], &centroids[c * dims], dims);
          if (distance < best_distance) {
            best_distance = distance;
            best = c;
          }
        }
        assign[i] = static_cast<int>(best);
      }
    };
    if (options.pool != nullptr) {
      options.pool->parallel_for(n, 64, assign_range);
    } else {
      assign_range(0, n);
    }
    distance_evals += n * k;
    ++iterations;
    if (assign == previous) break;
    previous = assign;

    std::vector<double> sums(k * dims, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto c = static_cast<std::size_t>(assign[i]);
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) {
        sums[c * dims + d] += coords[i * dims + d];
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      // A cluster nobody chose keeps its centroid; densification drops
      // it from the output if it stays empty.
      if (counts[c] == 0) continue;
      for (std::size_t d = 0; d < dims; ++d) {
        centroids[c * dims + d] =
            sums[c * dims + d] / static_cast<double>(counts[c]);
      }
    }
  }

  // Densify centroid indices into cluster ids in first-member order —
  // the same output contract as the single-linkage backends.
  result.assignment.assign(n, -1);
  std::vector<int> dense(k, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<std::size_t>(assign[i]);
    if (dense[c] < 0) {
      dense[c] = static_cast<int>(result.members.size());
      result.members.emplace_back();
    }
    result.assignment[i] = dense[c];
    result.members[static_cast<std::size_t>(dense[c])].push_back(i);
  }

  obs::add_counter(options.metrics, "cluster.b.kmeans_k", k);
  obs::add_counter(options.metrics, "cluster.b.kmeans_iterations", iterations);
  obs::add_counter(options.metrics, "cluster.b.kmeans_distance_evals",
                   distance_evals);
  return result;
}

}  // namespace repro::cluster
