#include "cluster/feature.hpp"

#include <unordered_map>

#include <cstdio>

#include "util/strings.hpp"

namespace repro::cluster {

std::string dimension_name(Dimension dimension) {
  switch (dimension) {
    case Dimension::kEpsilon: return "Epsilon";
    case Dimension::kGamma: return "Gamma";
    case Dimension::kPi: return "Pi";
    case Dimension::kMu: return "Mu";
  }
  return "unknown";
}

FeatureSchema epsilon_schema() {
  return FeatureSchema{Dimension::kEpsilon,
                       {"FSM path identifier", "Destination port"}};
}

FeatureSchema gamma_schema() {
  return FeatureSchema{Dimension::kGamma,
                       {"Hijack technique", "Trampoline address",
                        "Pad length"}};
}

FeatureSchema pi_schema() {
  return FeatureSchema{Dimension::kPi,
                       {"Download protocol", "Filename in protocol interaction",
                        "Port involved in protocol interaction",
                        "Interaction type"}};
}

FeatureSchema mu_schema() {
  return FeatureSchema{
      Dimension::kMu,
      {"File MD5", "File size in bytes", "File type (libmagic)",
       "(PE) Machine type", "(PE) Number of sections",
       "(PE) Number of imported DLLs", "(PE) OS version",
       "(PE) Linker version", "(PE) Names of the sections",
       "(PE) Imported DLLs", "(PE) Referenced Kernel32.dll symbols"}};
}

FeatureVector extract_epsilon(const honeypot::AttackEvent& event) {
  return FeatureVector{
      {event.epsilon.fsm_path, std::to_string(event.epsilon.dst_port)}};
}

FeatureVector extract_gamma(const honeypot::AttackEvent& event) {
  if (!event.gamma.has_value()) {
    return FeatureVector{{kNotAvailable, kNotAvailable, kNotAvailable}};
  }
  char trampoline[16];
  std::snprintf(trampoline, sizeof(trampoline), "0x%08x",
                event.gamma->trampoline);
  return FeatureVector{{event.gamma->technique, trampoline,
                        std::to_string(event.gamma->pad_length)}};
}

FeatureVector extract_pi(const honeypot::AttackEvent& event) {
  if (!event.pi.has_value()) {
    return FeatureVector{
        {kNotAvailable, kNotAvailable, kNotAvailable, kNotAvailable}};
  }
  return FeatureVector{{event.pi->protocol,
                        event.pi->filename.empty() ? "(none)"
                                                   : event.pi->filename,
                        std::to_string(event.pi->port), event.pi->interaction}};
}

FeatureVector extract_mu(const honeypot::MalwareSample& sample) {
  const honeypot::SampleFacts& facts = sample.facts;
  FeatureVector out;
  out.values.reserve(11);
  out.values.push_back(sample.md5);
  out.values.push_back(std::to_string(facts.size));
  out.values.push_back(facts.file_type);
  if (!facts.pe.has_value()) {
    // Truncated/corrupted image: PE fields are unobservable.
    while (out.values.size() < 11) out.values.emplace_back(kNotAvailable);
    return out;
  }
  const honeypot::PeHeaderFacts& pe = *facts.pe;
  out.values.push_back(std::to_string(pe.machine));
  out.values.push_back(std::to_string(pe.section_names.size()));
  out.values.push_back(std::to_string(pe.dlls.size()));
  out.values.push_back(std::to_string(pe.os_version));
  out.values.push_back(std::to_string(pe.linker_version));
  std::vector<std::string> section_names;
  section_names.reserve(pe.section_names.size());
  for (const std::string& name : pe.section_names) {
    section_names.push_back(escape_bytes(name));
  }
  out.values.push_back(join(section_names, ","));
  out.values.push_back(join(pe.dlls, ","));
  out.values.push_back(join(pe.kernel32_symbols, ","));
  return out;
}

DimensionData build_epsilon_data(const honeypot::EventDatabase& db) {
  DimensionData data;
  data.schema = epsilon_schema();
  data.instances.reserve(db.events().size());
  data.contexts.reserve(db.events().size());
  for (const honeypot::AttackEvent& event : db.events()) {
    data.instances.push_back(extract_epsilon(event));
    data.contexts.push_back(InstanceContext{event.attacker, event.honeypot});
    data.event_ids.push_back(event.id);
  }
  return data;
}

DimensionData build_gamma_data(const honeypot::EventDatabase& db) {
  DimensionData data;
  data.schema = gamma_schema();
  for (const honeypot::AttackEvent& event : db.events()) {
    if (!event.gamma.has_value()) {
      ++data.skipped_events;
      continue;
    }
    data.instances.push_back(extract_gamma(event));
    data.contexts.push_back(InstanceContext{event.attacker, event.honeypot});
    data.event_ids.push_back(event.id);
  }
  return data;
}

DimensionData build_pi_data(const honeypot::EventDatabase& db) {
  DimensionData data;
  data.schema = pi_schema();
  for (const honeypot::AttackEvent& event : db.events()) {
    if (!event.pi.has_value()) {
      ++data.skipped_events;
      continue;
    }
    data.instances.push_back(extract_pi(event));
    data.contexts.push_back(InstanceContext{event.attacker, event.honeypot});
    data.event_ids.push_back(event.id);
  }
  return data;
}

DimensionData build_mu_data(const honeypot::EventDatabase& db) {
  DimensionData data;
  data.schema = mu_schema();
  // Mu features are a function of the binary: compute once per sample.
  std::unordered_map<honeypot::SampleId, FeatureVector> cache;
  cache.reserve(db.samples().size());
  for (const honeypot::MalwareSample& sample : db.samples()) {
    cache.emplace(sample.id, extract_mu(sample));
  }
  for (const honeypot::AttackEvent& event : db.events()) {
    if (!event.sample.has_value()) {
      ++data.skipped_events;
      continue;
    }
    data.instances.push_back(cache.at(*event.sample));
    data.contexts.push_back(InstanceContext{event.attacker, event.honeypot});
    data.event_ids.push_back(event.id);
  }
  return data;
}

}  // namespace repro::cluster
