#include "io/csv_export.hpp"

#include <ostream>

#include "util/simtime.hpp"
#include "util/table.hpp"

namespace repro::io {

void write_events_csv(std::ostream& os, const honeypot::EventDatabase& db,
                      const cluster::EpmResult& e, const cluster::EpmResult& p,
                      const cluster::EpmResult& m,
                      const analysis::BehavioralView& b) {
  os << to_csv_row({"event_id", "time", "attacker", "honeypot", "location",
                    "dst_port", "fsm_path", "protocol", "filename", "pi_port",
                    "interaction", "sample_id", "e_cluster", "p_cluster",
                    "m_cluster", "b_cluster"})
     << "\n";
  for (const honeypot::AttackEvent& event : db.events()) {
    const auto cluster_cell = [](int id) {
      return id >= 0 ? std::to_string(id) : std::string{};
    };
    const int b_cluster = event.sample.has_value()
                              ? b.cluster_of_sample(*event.sample)
                              : -1;
    os << to_csv_row(
              {std::to_string(event.id), format_date(event.time),
               event.attacker.to_string(), event.honeypot.to_string(),
               std::to_string(event.location),
               std::to_string(event.epsilon.dst_port), event.epsilon.fsm_path,
               event.pi ? event.pi->protocol : "",
               event.pi ? event.pi->filename : "",
               event.pi ? std::to_string(event.pi->port) : "",
               event.pi ? event.pi->interaction : "",
               event.sample ? std::to_string(*event.sample) : "",
               cluster_cell(e.cluster_of_event(event.id)),
               cluster_cell(p.cluster_of_event(event.id)),
               cluster_cell(m.cluster_of_event(event.id)),
               cluster_cell(b_cluster)})
       << "\n";
  }
}

void write_samples_csv(std::ostream& os, const honeypot::EventDatabase& db,
                       const analysis::BehavioralView& b) {
  os << to_csv_row({"sample_id", "md5", "size", "first_seen", "truncated",
                    "event_count", "av_label", "b_cluster", "profile_size"})
     << "\n";
  for (const honeypot::MalwareSample& sample : db.samples()) {
    const int b_cluster = b.cluster_of_sample(sample.id);
    os << to_csv_row({std::to_string(sample.id), sample.md5,
                      std::to_string(sample.facts.size),
                      format_date(sample.first_seen),
                      sample.truncated ? "1" : "0",
                      std::to_string(sample.event_count), sample.av_label,
                      b_cluster >= 0 ? std::to_string(b_cluster) : "",
                      sample.profile ? std::to_string(sample.profile->size())
                                     : ""})
       << "\n";
  }
}

void write_clusters_csv(std::ostream& os, const cluster::EpmResult& result) {
  os << to_csv_row({"cluster_id", "dimension", "pattern", "member_events"})
     << "\n";
  for (std::size_t c = 0; c < result.patterns.size(); ++c) {
    os << to_csv_row({std::to_string(c),
                      cluster::dimension_name(result.schema.dimension),
                      result.patterns[c].key(),
                      std::to_string(result.members[c].size())})
       << "\n";
  }
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kDigits[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kDigits[(c >> 4) & 0x0f]);
          out.push_back(kDigits[c & 0x0f]);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void write_profiles_jsonl(std::ostream& os,
                          const honeypot::EventDatabase& db) {
  for (const honeypot::MalwareSample& sample : db.samples()) {
    if (!sample.profile.has_value()) continue;
    os << "{\"sample_id\":" << sample.id << ",\"md5\":\""
       << json_escape(sample.md5) << "\",\"features\":[";
    bool first = true;
    for (const std::string& feature : sample.profile->features()) {
      if (!first) os << ",";
      os << "\"" << json_escape(feature) << "\"";
      first = false;
    }
    os << "]}\n";
  }
}

}  // namespace repro::io
