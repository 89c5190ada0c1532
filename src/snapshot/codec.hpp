// Binary codecs for the durable pipeline state.
//
// Every structure an epoch cut or a WAL record carries (attack events,
// the per-sample enrichment column, EPM results, behavioral view,
// enrichment and fault accounting) serializes to the little-endian
// ByteWriter format and restores from a bounds-checked ByteReader.
// Decoders validate enum ranges, optional flags and cross-references
// and throw ParseError on anything malformed — never UB, never a
// logic_error — so a corrupted snapshot that slipped past the container
// CRCs still fails safely. Round-trip is exact: encode(decode(bytes))
// reproduces `bytes`, which is what makes checkpoint resume
// byte-deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/bview.hpp"
#include "cluster/epm.hpp"
#include "fault/injector.hpp"
#include "honeypot/database.hpp"
#include "honeypot/enrichment.hpp"
#include "sandbox/profile.hpp"
#include "util/byteio.hpp"

namespace repro::snapshot {

// --- Observed dataset -------------------------------------------------------

void write_enrichment_stats(ByteWriter& writer,
                            const honeypot::EnrichmentStats& stats);
[[nodiscard]] honeypot::EnrichmentStats read_enrichment_stats(
    ByteReader& reader);

void write_fault_report(ByteWriter& writer, const fault::FaultReport& report);
[[nodiscard]] fault::FaultReport read_fault_report(ByteReader& reader);

/// One sample's enrichment outputs: all that an epoch cut keeps of the
/// sample store. Everything else about a sample (facts, flags,
/// first_seen, event count) is rebuilt by replaying the WAL prefix the
/// cut covers; `md5` ties each entry to its replayed row.
struct SampleEnrichment {
  std::string md5;
  std::optional<sandbox::BehavioralProfile> profile;
  std::string av_label;
  bool label_missing = false;
};

/// Per-sample enrichment column, one entry per sample in id order.
void write_enrichment_column(ByteWriter& writer,
                             std::span<const honeypot::MalwareSample> samples);
/// Throws ParseError on malformed bytes. The entry count is bounded by
/// the remaining bytes before anything is allocated.
[[nodiscard]] std::vector<SampleEnrichment> read_enrichment_column(
    ByteReader& reader);

/// Single-event codec, used by the ingest WAL's record format.
void write_attack_event(ByteWriter& writer, const honeypot::AttackEvent& event);
[[nodiscard]] honeypot::AttackEvent read_attack_event(ByteReader& reader);

// --- Clustering results -----------------------------------------------------

void write_epm_result(ByteWriter& writer, const cluster::EpmResult& result);
[[nodiscard]] cluster::EpmResult read_epm_result(ByteReader& reader);

void write_behavioral_view(ByteWriter& writer,
                           const analysis::BehavioralView& view);
[[nodiscard]] analysis::BehavioralView read_behavioral_view(
    ByteReader& reader);

}  // namespace repro::snapshot
