// EPM feature definition and extraction (Phase 1 of EPM clustering).
//
// Table 1 of the paper defines the features characterizing each
// dimension of the epsilon-pi-mu space. Feature values are canonical
// strings; every mu value is rendered from the sample's facts, which the
// PE parser and libmagic-style detector derived from its bytes when the
// sample was stored (never from ground truth).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "honeypot/database.hpp"
#include "honeypot/event.hpp"

namespace repro::cluster {

/// The classified dimensions. The paper classifies epsilon, pi and mu;
/// gamma "carries no host-side information in SGNET" (footnote 1) and is
/// implemented here as an extension over the proxied-event subset, where
/// the sample factory's taint oracle does observe the hijack.
enum class Dimension : std::uint8_t { kEpsilon, kGamma, kPi, kMu };

[[nodiscard]] std::string dimension_name(Dimension dimension);

/// Ordered feature names of one dimension.
struct FeatureSchema {
  Dimension dimension = Dimension::kEpsilon;
  std::vector<std::string> names;

  [[nodiscard]] std::size_t size() const noexcept { return names.size(); }
};

/// Values aligned with a schema; "(n/a)" marks an unobservable value
/// (e.g. PE header fields of a truncated download).
struct FeatureVector {
  std::vector<std::string> values;
};

/// Sentinel for unobservable values.
inline constexpr const char* kNotAvailable = "(n/a)";

/// Epsilon: FSM path identifier, destination port.
[[nodiscard]] FeatureSchema epsilon_schema();
/// Gamma (extension): hijack technique, trampoline address, pad length.
[[nodiscard]] FeatureSchema gamma_schema();
/// Pi: download protocol, filename, protocol port, interaction type.
[[nodiscard]] FeatureSchema pi_schema();
/// Mu: MD5, size, libmagic type, machine, #sections, #DLLs, OS version,
/// linker version, section names, imported DLLs, Kernel32 symbols.
[[nodiscard]] FeatureSchema mu_schema();

[[nodiscard]] FeatureVector extract_epsilon(const honeypot::AttackEvent& event);
[[nodiscard]] FeatureVector extract_gamma(const honeypot::AttackEvent& event);
[[nodiscard]] FeatureVector extract_pi(const honeypot::AttackEvent& event);
/// Renders the sample's facts; unparsable images yield "(n/a)" PE fields
/// but still expose md5/size/file type.
[[nodiscard]] FeatureVector extract_mu(const honeypot::MalwareSample& sample);

/// Attack-instance context needed by invariant discovery: which
/// attacker used the value and which honeypot observed it.
struct InstanceContext {
  net::Ipv4 source;
  net::Ipv4 destination;
};

/// Feature matrix of one dimension over a set of attack events.
struct DimensionData {
  FeatureSchema schema;
  std::vector<FeatureVector> instances;
  std::vector<InstanceContext> contexts;
  /// Event id behind each row.
  std::vector<honeypot::EventId> event_ids;
  /// Events that carry no observation for this dimension and were
  /// skipped (e.g. refused downloads, unproxied conversations). The
  /// clustering degrades gracefully over what remains; this counter
  /// keeps the gap visible instead of silent.
  std::size_t skipped_events = 0;
};

/// Builds the per-dimension matrices for all events in the database
/// that carry the needed observation (mu rows require a collected
/// sample; mu features are computed once per sample and shared).
[[nodiscard]] DimensionData build_epsilon_data(const honeypot::EventDatabase& db);
/// Gamma rows exist only for events the sample factory proxied.
[[nodiscard]] DimensionData build_gamma_data(const honeypot::EventDatabase& db);
[[nodiscard]] DimensionData build_pi_data(const honeypot::EventDatabase& db);
[[nodiscard]] DimensionData build_mu_data(const honeypot::EventDatabase& db);

}  // namespace repro::cluster
