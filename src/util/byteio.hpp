// Little-endian byte serialization.
//
// The PE builder/parser and the shellcode codec read and write binary
// images explicitly, byte by byte, rather than by casting packed structs
// (which would be UB-prone and endianness-dependent).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace repro {

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);
  void text(std::string_view s);
  /// Write `s` into a fixed-width field, zero-padded (truncates if longer).
  void fixed_text(std::string_view s, std::size_t width);
  void zeros(std::size_t count);
  /// Pad with zeros until the buffer size is a multiple of `alignment`.
  void align(std::size_t alignment);

  /// Overwrite a u32 previously written at `offset`.
  void patch_u32(std::size_t offset, std::uint32_t v);

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return out_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian byte source. Throws ParseError past end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::vector<std::uint8_t> bytes(std::size_t count);
  /// Like bytes(), without the copy: the next `count` bytes of the
  /// source, valid as long as the source is.
  [[nodiscard]] std::span<const std::uint8_t> view(std::size_t count);
  /// Read a fixed-width field; returns the raw bytes including any NULs.
  [[nodiscard]] std::string fixed_text(std::size_t width);
  /// Read a NUL-terminated string at an absolute offset (does not move
  /// the cursor).
  [[nodiscard]] std::string cstring_at(std::size_t offset) const;
  void skip(std::size_t count);
  void seek(std::size_t offset);

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

 private:
  void require(std::size_t count) const;

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace repro
