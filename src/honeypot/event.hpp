// The EGPM attack-event schema.
//
// SGNET structures every observed code-injection attack along the
// epsilon-gamma-pi-mu model: the exploit dialog (epsilon), the control
// flow hijack (gamma, not observed host-side in SGNET and therefore not
// modeled), the injected payload (pi) and the uploaded malware binary
// (mu). An AttackEvent records what the deployment observed for one
// attack; a MalwareSample is one distinct collected binary enriched
// with sandbox and AV metadata.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "malware/family.hpp"
#include "net/ipv4.hpp"
#include "proto/gamma.hpp"
#include "sandbox/profile.hpp"
#include "util/simtime.hpp"

namespace repro::honeypot {

using EventId = std::uint64_t;
using SampleId = std::uint32_t;

/// Epsilon: what the sensor saw of the exploit dialog.
struct EpsilonObservation {
  /// FSM path identifier, or an event-unique "unknown/..." marker when
  /// the dialog could not be matched by a mature model (early
  /// observations of a new activity, proxied to the sample factory).
  std::string fsm_path;
  std::uint16_t dst_port = 0;
};

/// Pi: what the Nepenthes-style analyzer recovered from the shellcode.
struct PiObservation {
  std::string protocol;     // ftp/http/tftp/creceive/csend/blink
  std::string filename;     // empty when the protocol carries none
  std::uint16_t port = 0;   // server port involved in the interaction
  std::string interaction;  // PUSH/PULL/central flavour
};

/// Which dimensions of one event were actually observed. Faults and
/// analyzer limits make records explicitly partial; downstream
/// consumers skip-and-count missing dimensions instead of assuming
/// completeness.
struct DimensionPresence {
  bool epsilon = true;  // always recorded (possibly an unknown path)
  bool gamma = false;
  bool pi = false;
  bool mu = false;
};

/// One observed code-injection attack.
struct AttackEvent {
  EventId id = 0;
  SimTime time{};
  net::Ipv4 attacker;
  net::Ipv4 honeypot;
  /// Index of the network location (0..29) hosting the honeypot.
  int location = 0;

  EpsilonObservation epsilon;
  /// Present only for proxied events: the sample factory's taint oracle
  /// observed the control-flow hijack (the gamma extension; sensors
  /// handling matured activity autonomously have no host-side view).
  std::optional<proto::GammaObservation> gamma;
  /// Present when shellcode analysis succeeded.
  std::optional<PiObservation> pi;
  /// Present when a binary was collected (possibly truncated).
  std::optional<SampleId> sample;
  /// True when the analyzer recovered a download intent but the
  /// transfer was refused (injected connection failure): pi present,
  /// mu absent for a reason other than analyzer failure.
  bool download_refused = false;
  /// True when the conversation was proxied but the sample-factory
  /// channel failed every retry: the event keeps its unknown-path
  /// marker and the FSM was left unrefined.
  bool refinement_failed = false;

  /// Ground truth, for validation metrics only — never an input to
  /// clustering.
  malware::VariantId truth_variant = 0;

  [[nodiscard]] DimensionPresence presence() const noexcept {
    return DimensionPresence{true, gamma.has_value(), pi.has_value(),
                             sample.has_value()};
  }
};

/// PE header fields of an image that parses: the PE rows of the mu
/// dimension (Table 1).
struct PeHeaderFacts {
  std::uint16_t machine = 0;
  int os_version = 0;
  int linker_version = 0;
  /// Raw 8-byte section names, in section-table order.
  std::vector<std::string> section_names;
  /// Imported DLLs, in import-table order.
  std::vector<std::string> dlls;
  /// Symbols imported from KERNEL32.dll, sorted.
  std::vector<std::string> kernel32_symbols;
};

/// Everything the pipeline reads of a sample's bytes, derived once when
/// the sample is stored (the paper's mu dimension is defined over the
/// MD5, the size and the PE header fields, not over raw bytes). Facts
/// are a pure function of the bytes, so they are never persisted: a
/// replay derives them again from the WAL record.
struct SampleFacts {
  std::uint64_t size = 0;
  /// libmagic-style type string (pe::detect_file_type).
  std::string file_type;
  /// MZ header pointing at a "PE\0\0" signature (pe::looks_like_pe).
  bool looks_like_pe = false;
  /// Set when pe::parse_pe accepted the image; nullopt when it threw.
  std::optional<PeHeaderFacts> pe;

  /// Inspects `bytes` with the PE parser and the file-type detector.
  [[nodiscard]] static SampleFacts of(std::span<const std::uint8_t> bytes);
};

/// One distinct collected binary (deduplicated by MD5) plus enrichment.
/// The bytes themselves are not kept: they live in the WAL record of the
/// sample's first event (and at the generator until it is encoded).
struct MalwareSample {
  SampleId id = 0;
  std::string md5;
  SampleFacts facts;
  SimTime first_seen{};
  /// True when the Nepenthes-style download was cut short and the
  /// binary is incomplete — such samples cannot run in the sandbox.
  bool truncated = false;
  /// True when the transfer arrived bit-corrupted (injected download
  /// fault): the image no longer parses and cannot run either.
  bool corrupted = false;
  std::size_t event_count = 0;

  /// Enrichment results (information-enrichment pipeline of [18]).
  std::optional<sandbox::BehavioralProfile> profile;  // Anubis substitute
  std::string av_label;  // VirusTotal substitute; empty = labeler gap
  /// True when the AV labeler returned nothing for this sample.
  bool label_missing = false;

  /// A sample can execute in the sandbox only when its bytes form a
  /// complete, undamaged image.
  [[nodiscard]] bool intact() const noexcept {
    return !truncated && !corrupted;
  }

  /// Intact, PE-shaped and parseable: the sandbox can run it.
  [[nodiscard]] bool runnable() const noexcept {
    return intact() && facts.looks_like_pe && facts.pe.has_value();
  }

  /// Ground truth, for validation only.
  malware::VariantId truth_variant = 0;
};

}  // namespace repro::honeypot
