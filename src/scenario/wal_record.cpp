#include "scenario/wal_record.hpp"

#include <string>
#include <utility>

#include "snapshot/codec.hpp"
#include "util/byteio.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/md5.hpp"

namespace repro::scenario {

namespace {

enum class SampleKind : std::uint8_t { kNone = 0, kContent = 1, kReference = 2 };

constexpr std::size_t kDigestBytes = 16;

bool read_flag(ByteReader& reader) {
  const std::uint8_t value = reader.u8();
  if (value > 1) throw ParseError("WAL record: sample flag out of range");
  return value != 0;
}

}  // namespace

std::vector<std::uint8_t> encode_record(
    const honeypot::GeneratedRecord& record) {
  ByteWriter writer;
  writer.u8(kRecordVersion);
  honeypot::AttackEvent copy = record.event;
  copy.id = 0;          // replay reassigns ids in order
  copy.sample.reset();  // the sample travels by digest, not by id
  snapshot::write_attack_event(writer, copy);
  if (!record.event.sample.has_value()) {
    writer.u8(static_cast<std::uint8_t>(SampleKind::kNone));
    return writer.take();
  }
  writer.u8(static_cast<std::uint8_t>(
      record.new_sample ? SampleKind::kContent : SampleKind::kReference));
  writer.bytes(record.md5);
  if (record.new_sample) {
    writer.u64(record.content.size());
    writer.bytes(record.content);
    writer.u8(record.truncated ? 1 : 0);
    writer.u8(record.corrupted ? 1 : 0);
  }
  return writer.take();
}

void replay_record(std::span<const std::uint8_t> payload,
                   honeypot::EventDatabase& db, bool rehash) {
  ByteReader reader{payload};
  if (reader.u8() != kRecordVersion) {
    throw ParseError("WAL record: unsupported version");
  }
  honeypot::AttackEvent event = snapshot::read_attack_event(reader);
  if (event.sample.has_value()) {
    throw ParseError("WAL record: event carries a sample id");
  }
  const std::uint8_t kind_byte = reader.u8();
  if (kind_byte > static_cast<std::uint8_t>(SampleKind::kReference)) {
    throw ParseError("WAL record: unknown sample kind");
  }
  const auto kind = static_cast<SampleKind>(kind_byte);
  std::string md5;
  std::span<const std::uint8_t> content;
  bool truncated = false;
  bool corrupted = false;
  if (kind != SampleKind::kNone) {
    md5 = hex_encode(reader.bytes(kDigestBytes));
    const bool stored = db.find_by_md5(md5).has_value();
    if (kind == SampleKind::kContent) {
      if (stored) throw ParseError("WAL record: content for a stored sample");
      content = reader.view(static_cast<std::size_t>(reader.u64()));
      truncated = read_flag(reader);
      corrupted = read_flag(reader);
    } else if (!stored) {
      throw ParseError("WAL record: reference to an unknown sample");
    }
  }
  if (reader.remaining() != 0) {
    throw ParseError("WAL record: trailing bytes");
  }
  if (rehash && kind == SampleKind::kContent &&
      Md5::hex_digest(content) != md5) {
    throw ConfigError("verify-incremental: WAL record digest " + md5 +
                      " is not the md5 of its content");
  }

  if (kind != SampleKind::kNone) {
    const honeypot::SampleId id =
        db.add_sample(std::move(md5), content, event.time, truncated,
                      event.truth_variant);
    if (corrupted) db.sample_mutable(id).corrupted = true;
    event.sample = id;
  }
  (void)db.add_event(std::move(event));
}

}  // namespace repro::scenario
