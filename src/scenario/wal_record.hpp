// WAL record payloads: one attack event per record, in event order.
//
// Payload layout (version 2, little-endian):
//
//   [u8 version=2][attack event, snapshot codec, id=0, no sample ref]
//   [u8 kind: 0 none / 1 content / 2 reference]
//   [16-byte MD5]                                   (kinds 1 and 2)
//   [u64 size][bytes][u8 truncated][u8 corrupted]   (kind 1 only)
//
// A sample's bytes are logged once, in the record of its first event
// (a content record); every later event of that sample is a reference
// record that carries only the digest. Which index carries content is
// a function of the event sequence alone, so a record encoded again from
// the regenerated stream is byte-equal to the one recovered from disk.
//
// Trust model: the digest is computed once, where the download is made,
// and travels in the record under the frame CRC. Replay trusts it and
// never rehashes; the epoch cut's sample column still checks every md5
// on restore, and StreamOptions::verify_incremental re-derives the
// digest of every content record it replays.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "honeypot/database.hpp"

namespace repro::scenario {

inline constexpr std::uint8_t kRecordVersion = 2;

/// For each event of `gen_db`, whether its record carries the sample's
/// bytes: true exactly at the first event of every sample.
[[nodiscard]] std::vector<bool> content_carriers(
    const honeypot::EventDatabase& gen_db);

/// Record payload of `event`, an event of `gen_db`; `carries_content` is
/// its entry in content_carriers(gen_db).
[[nodiscard]] std::vector<std::uint8_t> encode_record(
    const honeypot::AttackEvent& event, bool carries_content,
    const honeypot::EventDatabase& gen_db);

/// Decodes one record payload and appends its event to `db`: a content
/// record stores a new sample under the carried digest, a reference
/// record counts one more event of a stored sample (exactly as a
/// duplicate add_sample does). `db` is untouched when this throws.
/// Throws ParseError on a malformed payload, a reference to a digest
/// `db` does not hold, or content for a digest it already holds. With
/// `rehash`, also re-derives md5(content) of a content record and throws
/// ConfigError when it differs from the carried digest.
void replay_record(std::span<const std::uint8_t> payload,
                   honeypot::EventDatabase& db, bool rehash = false);

}  // namespace repro::scenario
