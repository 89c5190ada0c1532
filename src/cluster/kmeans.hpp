// K-means over hash-derived feature vectors.
//
// Basole & Stamp (and the hash-based K-means line of work in
// PAPERS.md) cluster malware on fixed-width numeric vectors instead of
// set similarity. This backend derives those vectors from the same
// MinHash signatures the LSH backend computes: each of the
// bands x rows signature components, normalized into [0, 1), is one
// coordinate. Identical profiles get identical coordinates, similar
// id sets get componentwise-close ones (each component is a min-wise
// hash), so Euclidean proximity tracks Jaccard similarity — while
// exercising a genuinely different algorithm family (centroid
// re-assignment instead of connected components).
//
// Determinism: centroid seeding is greedy farthest-point from one
// Rng{options.seed} draw; Lloyd iterations are capped by
// `kmeans_iterations` and stop early when the integer assignment
// reaches a fixed point (no floating-point convergence test). The
// assignment step fans out over the pool into disjoint per-item slots
// and the centroid update is a serial reduction in index order, so the
// output is byte-identical at every pool width.
#pragma once

#include <vector>

#include "cluster/behavioral.hpp"

namespace repro::cluster {

/// Clusters profiles with seeded K-means over MinHash coordinates.
/// `options.kmeans_k` of 0 derives k = floor(sqrt(n)); k is clamped to
/// n. Recomputes every id set and signature on each call.
[[nodiscard]] BehavioralClusters kmeans_cluster(
    const std::vector<const sandbox::BehavioralProfile*>& profiles,
    const BehavioralOptions& options = {});

}  // namespace repro::cluster
