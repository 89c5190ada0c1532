#include "honeypot/deployment.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <string>

#include "malware/binary.hpp"
#include "malware/population.hpp"
#include "malware/schedule.hpp"
#include "shellcode/analyzer.hpp"
#include "shellcode/builder.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace repro::honeypot {

Deployment::Deployment(const malware::Landscape& landscape,
                       DeploymentConfig config)
    : landscape_(&landscape),
      config_(config),
      gateway_(config.fsm),
      driver_rng_(mix64(config_.seed ^ 0xdeb1'0000'0000'0000ULL)) {
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

void Deployment::schedule() {
  scheduled_ = true;
  // Realize every variant's infected population once, deterministically;
  // only the attackers picked from it outlive the schedule.
  std::vector<std::vector<net::Ipv4>> populations;
  populations.reserve(landscape_->variants.size());
  for (const malware::MalwareVariant& variant : landscape_->variants) {
    Rng population_rng{mix64(variant.seed ^ 0x9090'9090'9090'9090ULL)};
    populations.push_back(
        malware::realize_population(variant.population, population_rng));
  }

  for (int week = 0; week < landscape_->weeks; ++week) {
    // Schedule this week's attacks across all variants, then order them
    // chronologically. Each week is sorted on its own, so ties keep the
    // order the per-week sort gives them.
    const std::size_t week_begin = schedule_.size();
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
        attack.honeypot_index = static_cast<std::uint32_t>(
            static_cast<std::size_t>(location) *
                static_cast<std::size_t>(config_.honeypots_per_location) +
            week_rng.index(
                static_cast<std::size_t>(config_.honeypots_per_location)));
        attack.week = week;
        schedule_.push_back(attack);
      }
    }
    std::sort(schedule_.begin() + static_cast<std::ptrdiff_t>(week_begin),
              schedule_.end());
  }
}

std::uint64_t Deployment::event_total() {
  if (!scheduled_) schedule();
  if (config_.faults == nullptr) return schedule_.size();
  const fault::FaultPlan& plan = config_.faults->plan();
  return static_cast<std::uint64_t>(std::count_if(
      schedule_.begin(), schedule_.end(), [&](const PendingAttack& attack) {
        return !plan.sensor_down(location_of(attack.honeypot_index),
                                 attack.week);
      }));
}

std::optional<GeneratedRecord> Deployment::next(std::uint64_t horizon) {
  if (ahead_next_ == ahead_.size()) simulate_ahead(horizon);
  if (ahead_next_ == ahead_.size()) return std::nullopt;
  ++pulled_;
  return std::move(ahead_[ahead_next_++]);
}

void Deployment::simulate_ahead(std::uint64_t horizon) {
  if (horizon <= pulled_) {
    throw ConfigError("Deployment::next: the horizon must lie past record " +
                      std::to_string(pulled_));
  }
  if (!scheduled_) schedule();
  ahead_.clear();
  ahead_.reserve(kLookAhead);
  ahead_next_ = 0;
  std::array<std::span<const std::uint8_t>, kLookAhead> downloads;
  std::array<std::size_t, kLookAhead> downloaded_by{};
  std::size_t download_count = 0;
  while (ahead_.size() < kLookAhead && pulled_ + ahead_.size() < horizon &&
         cursor_ < schedule_.size()) {
    const PendingAttack& attack = schedule_[cursor_++];
    // Sensor outage: the honeypot records nothing — no event, no FSM
    // learning, no sample, no nonce. Skipped before any shared RNG draw
    // so an empty fault plan leaves the stream untouched.
    if (config_.faults != nullptr &&
        config_.faults->sensor_down(location_of(attack.honeypot_index),
                                    attack.week)) {
      continue;
    }
    GeneratedRecord& record = ahead_.emplace_back();
    if (simulate(attack, record)) {
      downloads[download_count] = record.content;
      downloaded_by[download_count] = ahead_.size() - 1;
      ++download_count;
    }
  }
  std::array<Md5Digest, kLookAhead> digests{};
  Md5::digest_many(std::span{downloads}.first(download_count),
                   std::span{digests}.first(download_count));
  // Samples are deduplicated by MD5; ids are dense in first-seen order.
  // A repeated sample's bytes are freed at once: only the first event of
  // a sample carries them, with its download's flags.
  for (std::size_t i = 0; i < download_count; ++i) {
    GeneratedRecord& record = ahead_[downloaded_by[i]];
    record.md5 = digests[i];
    const auto [known, inserted] = sample_ids_.try_emplace(
        record.md5, static_cast<SampleId>(sample_ids_.size()));
    record.event.sample = known->second;
    record.new_sample = inserted;
    if (!inserted) {
      record.content = std::vector<std::uint8_t>{};
      record.truncated = false;
      record.corrupted = false;
    }
  }
}

bool Deployment::simulate(const PendingAttack& attack,
                          GeneratedRecord& record) {
  const malware::MalwareVariant& variant =
      landscape_->variants[attack.variant];
  const malware::PayloadSpec& payload_spec =
      landscape_->payloads[variant.payload_index];
  const proto::ExploitTemplate& exploit =
      landscape_->exploits[variant.exploit_index];
  const net::Ipv4 honeypot = honeypots_[attack.honeypot_index];
  const std::uint64_t nonce = nonce_++;

  // 1. The attacker builds and sends the exploit + payload.
  const shellcode::DownloadIntent intent =
      malware::realize_intent(payload_spec, attack.attacker, driver_rng_);
  const std::vector<std::uint8_t> payload = shellcode::build_shellcode(
      intent, payload_spec.encoder, driver_rng_);
  const proto::Conversation conversation = proto::synthesize_attack(
      exploit, payload, attack.attacker, honeypot, driver_rng_);

  // 2. Sensor/gateway: FSM match or proxy + refine.
  const Gateway::Outcome outcome =
      gateway_.handle(conversation, proto::payload_location(exploit));

  AttackEvent& event = record.event;
  event.time = attack.time;
  event.attacker = attack.attacker;
  event.honeypot = honeypot;
  event.location = location_of(attack.honeypot_index);
  event.epsilon = EpsilonObservation{outcome.fsm_path, conversation.dst_port};
  event.refinement_failed = outcome.proxied && !outcome.refined;
  event.truth_variant = variant.id;

  // Gamma extension: when the conversation went through the sample
  // factory, the taint oracle sees the hijack — parse the control data
  // out of the tainted region (bytes, not ground truth).
  if (outcome.proxied) {
    const proto::PayloadLocation location = proto::payload_location(exploit);
    const proto::Bytes& carrier =
        conversation.messages[location.message_index].bytes;
    if (location.byte_offset < carrier.size()) {
      const proto::Bytes tainted{
          carrier.begin() + static_cast<long>(location.byte_offset),
          carrier.end()};
      event.gamma = proto::observe_gamma(tainted);
    }
  }

  // 3. Shellcode extraction and analysis (Nepenthes substitute): scan the
  // client byte stream for a known decoder structure.
  std::vector<std::uint8_t> client_stream;
  for (const proto::Bytes* message : conversation.client_messages()) {
    client_stream.insert(client_stream.end(), message->begin(),
                         message->end());
  }
  const auto analyzed = shellcode::analyze_shellcode(client_stream);
  if (!analyzed.has_value()) return false;
  PiObservation pi;
  pi.protocol = shellcode::protocol_name(analyzed->protocol);
  pi.filename = analyzed->filename;
  pi.port = analyzed->port;
  pi.interaction = shellcode::interaction_name(
      shellcode::classify_interaction(*analyzed, attack.attacker));
  event.pi = pi;

  // 4. Download emulation: fetch the malware binary. Injected faults
  // extend the truncation model: a refused connection collects nothing,
  // bit corruption damages the stored image.
  const fault::DownloadFault download_fault =
      config_.faults != nullptr ? config_.faults->download_fault(nonce)
                                : fault::DownloadFault::kNone;
  if (download_fault == fault::DownloadFault::kRefused) {
    event.download_refused = true;
    return false;
  }
  DownloadResult download = emulate_download(
      malware::realize_binary(variant, attack.attacker, nonce),
      config_.download, driver_rng_);
  const bool corrupted = download_fault == fault::DownloadFault::kCorrupted;
  if (corrupted) config_.faults->corrupt(download.content, nonce);
  record.content = std::move(download.content);
  record.truncated = download.truncated;
  record.corrupted = corrupted;
  return true;
}

void Deployment::drain_into(EventDatabase& db,
                            std::vector<std::vector<std::uint8_t>>* contents) {
  if (pulled_ != 0) {
    throw ConfigError("Deployment::drain_into: records were already pulled");
  }
  if (!db.samples().empty()) {
    throw ConfigError("Deployment::drain_into: database already holds samples");
  }
  while (std::optional<GeneratedRecord> record = next()) {
    AttackEvent& event = record->event;
    if (event.sample.has_value()) {
      // A repeated digest only counts one more event of its sample, so
      // the sample keeps its first download's flags.
      (void)db.add_sample(hex_encode(record->md5), record->content,
                          event.time, record->truncated, event.truth_variant);
      if (record->new_sample && record->corrupted) {
        db.sample_mutable(*event.sample).corrupted = true;
      }
      if (record->new_sample && contents != nullptr) {
        contents->push_back(std::move(record->content));
      }
    }
    (void)db.add_event(std::move(event));
  }
}

}  // namespace repro::honeypot
