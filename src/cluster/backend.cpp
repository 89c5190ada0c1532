#include "cluster/backend.hpp"

#include <array>
#include <string>

#include "cluster/kmeans.hpp"
#include "util/error.hpp"

namespace repro::cluster {

namespace {

class LshBackend final : public ClusterBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "lsh";
  }
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kLsh;
  }
  [[nodiscard]] BehavioralClusters partition(
      const std::vector<const sandbox::BehavioralProfile*>& profiles,
      const BehavioralOptions& options) const override {
    return lsh_single_linkage(profiles, options);
  }
};

class ExactBackend final : public ClusterBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "exact";
  }
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kExact;
  }
  [[nodiscard]] BehavioralClusters partition(
      const std::vector<const sandbox::BehavioralProfile*>& profiles,
      const BehavioralOptions& options) const override {
    return exact_single_linkage(profiles, options);
  }
};

class KmeansBackend final : public ClusterBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "kmeans";
  }
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kKmeans;
  }
  [[nodiscard]] BehavioralClusters partition(
      const std::vector<const sandbox::BehavioralProfile*>& profiles,
      const BehavioralOptions& options) const override {
    return kmeans_cluster(profiles, options);
  }
};

const LshBackend kLshBackend{};
const ExactBackend kExactBackend{};
const KmeansBackend kKmeansBackend{};

const std::array<const ClusterBackend*, 3> kRegistry{
    &kLshBackend, &kExactBackend, &kKmeansBackend};
constexpr std::array<BackendKind, 3> kKinds{
    BackendKind::kLsh, BackendKind::kExact, BackendKind::kKmeans};

}  // namespace

const ClusterBackend& cluster_backend(BackendKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  if (index >= kRegistry.size()) {
    throw ConfigError("cluster_backend: unregistered backend kind " +
                      std::to_string(index));
  }
  return *kRegistry[index];
}

const ClusterBackend& backend_from_name(std::string_view name) {
  for (const ClusterBackend* backend : kRegistry) {
    if (backend->name() == name) return *backend;
  }
  throw ConfigError("unknown cluster backend '" + std::string(name) +
                    "' (expected lsh, exact, or kmeans)");
}

std::string_view backend_name(BackendKind kind) {
  return cluster_backend(kind).name();
}

std::span<const BackendKind> all_backends() { return kKinds; }

}  // namespace repro::cluster
