#include "util/byteio.hpp"

#include "util/error.hpp"

namespace repro {

void ByteWriter::u8(std::uint8_t v) { out_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v & 0xff));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v & 0xffff));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v & 0xffffffffu));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::text(std::string_view s) {
  out_.insert(out_.end(), s.begin(), s.end());
}

void ByteWriter::fixed_text(std::string_view s, std::size_t width) {
  const std::size_t take = std::min(s.size(), width);
  out_.insert(out_.end(), s.begin(), s.begin() + static_cast<long>(take));
  zeros(width - take);
}

void ByteWriter::zeros(std::size_t count) {
  out_.insert(out_.end(), count, 0);
}

void ByteWriter::align(std::size_t alignment) {
  if (alignment == 0) return;
  const std::size_t rem = out_.size() % alignment;
  if (rem != 0) zeros(alignment - rem);
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  // Subtraction form: `offset + 4` could wrap for offsets near
  // SIZE_MAX and sneak past the check.
  if (out_.size() < 4 || offset > out_.size() - 4) {
    throw ParseError("ByteWriter::patch_u32: offset out of range");
  }
  out_[offset] = static_cast<std::uint8_t>(v & 0xff);
  out_[offset + 1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  out_[offset + 2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  out_[offset + 3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

void ByteReader::require(std::size_t count) const {
  // Subtraction form: `offset_ + count` could wrap for counts near
  // SIZE_MAX (e.g. a corrupt length field) and sneak past the check.
  if (count > data_.size() - offset_) {
    throw ParseError("ByteReader: read past end of data (offset " +
                     std::to_string(offset_) + " + " + std::to_string(count) +
                     " > " + std::to_string(data_.size()) + ")");
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[offset_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  const std::uint16_t v = static_cast<std::uint16_t>(
      data_[offset_] | static_cast<std::uint16_t>(data_[offset_ + 1]) << 8);
  offset_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | data_[offset_ + static_cast<std::size_t>(i)];
  offset_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return hi << 32 | lo;
}

std::vector<std::uint8_t> ByteReader::bytes(std::size_t count) {
  require(count);
  std::vector<std::uint8_t> out{data_.begin() + static_cast<long>(offset_),
                                data_.begin() +
                                    static_cast<long>(offset_ + count)};
  offset_ += count;
  return out;
}

std::span<const std::uint8_t> ByteReader::view(std::size_t count) {
  require(count);
  const std::span<const std::uint8_t> out = data_.subspan(offset_, count);
  offset_ += count;
  return out;
}

std::string ByteReader::fixed_text(std::size_t width) {
  require(width);
  std::string out{reinterpret_cast<const char*>(data_.data() + offset_), width};
  offset_ += width;
  return out;
}

std::string ByteReader::cstring_at(std::size_t offset) const {
  if (offset >= data_.size()) {
    throw ParseError("ByteReader::cstring_at: offset out of range");
  }
  std::string out;
  for (std::size_t i = offset; i < data_.size() && data_[i] != 0; ++i) {
    out.push_back(static_cast<char>(data_[i]));
  }
  return out;
}

void ByteReader::skip(std::size_t count) {
  require(count);
  offset_ += count;
}

void ByteReader::seek(std::size_t offset) {
  if (offset > data_.size()) {
    throw ParseError("ByteReader::seek: offset out of range");
  }
  offset_ = offset;
}

}  // namespace repro
