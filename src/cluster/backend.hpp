// Pluggable B-clustering backends.
//
// The paper's behavioral dimension is one specific algorithm — LSH
// single linkage over MinHash signatures — but validating it (against
// the exact oracle) and exploring the design space the related work
// maps out (hash-derived K-means, Basole & Stamp) require swapping the
// algorithm without touching its consumers. Every backend implements
// `partition(profiles, options) -> BehavioralClusters` with the same
// output contract: dense cluster ids ordered by first member,
// byte-identical at every pool width, deterministic work counters
// reported through src/obs. Consumers (scenario build, streaming epoch
// loop, serve views, report exports) stay backend-agnostic.
//
// The registry is a closed set keyed by BackendKind (declared in
// behavioral.hpp so options can name a backend without this header).
// An epoch cut's fingerprint names the backend that produced its
// partition, so a cut of one backend is stale under another and can
// never seed it (see DESIGN.md §15 for the soundness argument).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cluster/behavioral.hpp"

namespace repro::cluster {

/// One clustering algorithm. Implementations are stateless const
/// singletons owned by the registry; all run state lives in the
/// options and return value.
class ClusterBackend {
 public:
  virtual ~ClusterBackend() = default;

  /// Stable CLI / wire name ("lsh", "exact", "kmeans").
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual BackendKind kind() const noexcept = 0;
  /// True for backends with connected-component (single-linkage)
  /// semantics. Only these may be seeded from a prior prefix
  /// partition (BehavioralOptions::prior_assignment) — appending
  /// items never invalidates an old/old edge under single linkage,
  /// but re-centering algorithms (K-means) can move old items between
  /// clusters on every run.
  [[nodiscard]] virtual bool single_linkage() const noexcept = 0;

  /// Clusters the profiles; same contract as cluster_profiles.
  [[nodiscard]] virtual BehavioralClusters partition(
      const std::vector<const sandbox::BehavioralProfile*>& profiles,
      const BehavioralOptions& options) const = 0;
};

/// The registered backend for a kind. Throws ConfigError on an
/// unregistered enumerator (only possible via a cast).
[[nodiscard]] const ClusterBackend& cluster_backend(BackendKind kind);

/// Lookup by CLI name; throws ConfigError listing the valid names.
[[nodiscard]] const ClusterBackend& backend_from_name(std::string_view name);

/// Stable display name of a kind.
[[nodiscard]] std::string_view backend_name(BackendKind kind);

/// Every registered kind, in BackendKind enumerator order.
[[nodiscard]] std::span<const BackendKind> all_backends();

}  // namespace repro::cluster
