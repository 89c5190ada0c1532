#include "honeypot/deployment.hpp"

#include <algorithm>

#include "malware/binary.hpp"
#include "malware/population.hpp"
#include "malware/schedule.hpp"
#include "shellcode/analyzer.hpp"
#include "shellcode/builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace repro::honeypot {

namespace {

/// One attack scheduled for a given instant, before pipeline processing.
struct PendingAttack {
  SimTime time{};
  malware::VariantId variant = 0;
  net::Ipv4 attacker;
  std::size_t honeypot_index = 0;

  friend bool operator<(const PendingAttack& a, const PendingAttack& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.variant != b.variant) return a.variant < b.variant;
    return a.attacker < b.attacker;
  }
};

}  // namespace

Deployment::Deployment(const malware::Landscape& landscape,
                       DeploymentConfig config)
    : landscape_(&landscape), config_(config), gateway_(config.fsm) {
  landscape.validate();
  gateway_.set_fault_injector(config_.faults);
  if (config_.location_count <= 0 || config_.honeypots_per_location <= 0) {
    throw ConfigError("Deployment: location/honeypot counts must be positive");
  }
  // Place each network location in a distinct /24 and assign consecutive
  // addresses to its honeypots.
  Rng rng{mix64(config_.seed ^ 0x5e45'0000'0000'0001ULL)};
  const net::WidespreadSampler sampler;
  for (int location = 0; location < config_.location_count; ++location) {
    const net::Ipv4 base = sampler.sample(rng);
    const net::Subnet block{base, 24};
    for (int h = 0; h < config_.honeypots_per_location; ++h) {
      honeypots_.push_back(
          net::Ipv4{block.network().value() + 10 +
                    static_cast<std::uint32_t>(h)});
    }
  }
}

Collection Deployment::run() {
  Collection collected;
  EventDatabase& db = collected.db;
  Rng driver_rng{mix64(config_.seed ^ 0xdeb1'0000'0000'0000ULL)};

  // Realize every variant's infected population once, deterministically.
  std::vector<std::vector<net::Ipv4>> populations;
  populations.reserve(landscape_->variants.size());
  for (const malware::MalwareVariant& variant : landscape_->variants) {
    Rng population_rng{mix64(variant.seed ^ 0x9090'9090'9090'9090ULL)};
    populations.push_back(
        malware::realize_population(variant.population, population_rng));
  }

  std::uint64_t nonce = 0;
  for (int week = 0; week < landscape_->weeks; ++week) {
    // Schedule this week's attacks across all variants, then process
    // them in chronological order (the gateway's model maturity depends
    // on it).
    std::vector<PendingAttack> pending;
    const SimTime week_start = add_weeks(landscape_->start_time, week);
    for (const malware::MalwareVariant& variant : landscape_->variants) {
      const auto& population = populations[variant.id];
      if (population.empty()) continue;
      const malware::WeeklyActivity activity = malware::weekly_activity(
          variant.schedule, week, config_.location_count);
      if (activity.expected_events <= 0.0) continue;
      Rng week_rng{mix64(variant.seed ^ mix64(config_.seed) ^
                         mix64(0x3eed'0000ULL + static_cast<std::uint64_t>(
                                                    week + 7'000'000)))};
      const std::uint64_t count =
          week_rng.poisson(activity.expected_events);
      for (std::uint64_t i = 0; i < count; ++i) {
        PendingAttack attack;
        attack.time = add_seconds(
            week_start,
            static_cast<std::int64_t>(week_rng.uniform(0, kSecondsPerWeek - 1)));
        attack.variant = variant.id;
        attack.attacker = week_rng.pick(population);
        const int location =
            activity.target_locations.empty()
                ? static_cast<int>(week_rng.index(
                      static_cast<std::size_t>(config_.location_count)))
                : week_rng.pick(activity.target_locations);
        attack.honeypot_index =
            static_cast<std::size_t>(location) *
                static_cast<std::size_t>(config_.honeypots_per_location) +
            week_rng.index(
                static_cast<std::size_t>(config_.honeypots_per_location));
        pending.push_back(attack);
      }
    }
    std::sort(pending.begin(), pending.end());

    for (const PendingAttack& attack : pending) {
      // Sensor outage: the honeypot records nothing — no event, no FSM
      // learning, no sample. Skipped before any shared RNG draw so an
      // empty fault plan leaves the stream untouched.
      if (config_.faults != nullptr &&
          config_.faults->sensor_down(location_of(attack.honeypot_index),
                                      week)) {
        continue;
      }
      const malware::MalwareVariant& variant =
          landscape_->variants[attack.variant];
      const malware::PayloadSpec& payload_spec =
          landscape_->payloads[variant.payload_index];
      const proto::ExploitTemplate& exploit =
          landscape_->exploits[variant.exploit_index];
      const net::Ipv4 honeypot = honeypots_[attack.honeypot_index];

      // 1. The attacker builds and sends the exploit + payload.
      const shellcode::DownloadIntent intent =
          malware::realize_intent(payload_spec, attack.attacker, driver_rng);
      const std::vector<std::uint8_t> payload = shellcode::build_shellcode(
          intent, payload_spec.encoder, driver_rng);
      const proto::Conversation conversation = proto::synthesize_attack(
          exploit, payload, attack.attacker, honeypot, driver_rng);

      // 2. Sensor/gateway: FSM match or proxy + refine.
      const Gateway::Outcome outcome =
          gateway_.handle(conversation, proto::payload_location(exploit));

      AttackEvent event;
      event.time = attack.time;
      event.attacker = attack.attacker;
      event.honeypot = honeypot;
      event.location = location_of(attack.honeypot_index);
      event.epsilon =
          EpsilonObservation{outcome.fsm_path, conversation.dst_port};
      event.refinement_failed = outcome.proxied && !outcome.refined;
      event.truth_variant = variant.id;

      // Gamma extension: when the conversation went through the sample
      // factory, the taint oracle sees the hijack — parse the control
      // data out of the tainted region (bytes, not ground truth).
      if (outcome.proxied) {
        const proto::PayloadLocation location =
            proto::payload_location(exploit);
        const proto::Bytes& carrier =
            conversation.messages[location.message_index].bytes;
        if (location.byte_offset < carrier.size()) {
          const proto::Bytes tainted{
              carrier.begin() + static_cast<long>(location.byte_offset),
              carrier.end()};
          event.gamma = proto::observe_gamma(tainted);
        }
      }

      // 3. Shellcode extraction and analysis (Nepenthes substitute):
      // scan the client byte stream for a known decoder structure.
      std::vector<std::uint8_t> client_stream;
      for (const proto::Bytes* message : conversation.client_messages()) {
        client_stream.insert(client_stream.end(), message->begin(),
                             message->end());
      }
      const auto analyzed = shellcode::analyze_shellcode(client_stream);
      if (analyzed.has_value()) {
        PiObservation pi;
        pi.protocol = shellcode::protocol_name(analyzed->protocol);
        pi.filename = analyzed->filename;
        pi.port = analyzed->port;
        pi.interaction = shellcode::interaction_name(
            shellcode::classify_interaction(*analyzed, attack.attacker));
        event.pi = pi;

        // 4. Download emulation: fetch the malware binary. Injected
        // faults extend the truncation model: a refused connection
        // collects nothing, bit corruption damages the stored image.
        const fault::DownloadFault download_fault =
            config_.faults != nullptr ? config_.faults->download_fault(nonce)
                                      : fault::DownloadFault::kNone;
        if (download_fault == fault::DownloadFault::kRefused) {
          event.download_refused = true;
        } else {
          DownloadResult download = emulate_download(
              malware::realize_binary(variant, attack.attacker, nonce),
              config_.download, driver_rng);
          if (download_fault == fault::DownloadFault::kCorrupted) {
            config_.faults->corrupt(download.content, nonce);
          }
          event.sample = db.add_sample(download.content, attack.time,
                                       download.truncated, variant.id);
          // Sample ids are dense in first-seen order: a new sample's id
          // is the next slot of `contents`.
          if (*event.sample == collected.contents.size()) {
            collected.contents.push_back(std::move(download.content));
          }
          if (download_fault == fault::DownloadFault::kCorrupted) {
            db.sample_mutable(*event.sample).corrupted = true;
          }
        }
      }
      ++nonce;
      db.add_event(std::move(event));
    }
  }
  return collected;
}

}  // namespace repro::honeypot
