// Self-contained MD5 (RFC 1321).
//
// Malware samples in the paper are identified by MD5, and the
// mu-dimension of EPM clustering uses the digest as a candidate
// invariant feature, so the library computes real digests of the
// synthetic PE images it builds.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace repro {

using Md5Digest = std::array<std::uint8_t, 16>;

/// Incremental MD5 context.
class Md5 {
 public:
  Md5() noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] Md5Digest finish() noexcept;

  /// One-shot digest.
  [[nodiscard]] static Md5Digest digest(std::span<const std::uint8_t> data) noexcept;

  /// One-shot digests of many messages: out[i] = digest(messages[i]).
  /// Where the CPU has AVX-512VL or AVX2, eight messages are hashed side
  /// by side in SIMD lanes, and a lane takes the next message as soon as
  /// its current one ends. `out` holds one digest per message
  /// (ConfigError otherwise).
  static void digest_many(
      std::span<const std::span<const std::uint8_t>> messages,
      std::span<Md5Digest> out);

  /// One-shot digest rendered as 32 lowercase hex characters.
  [[nodiscard]] static std::string hex_digest(std::span<const std::uint8_t> data);

 private:
  std::uint32_t state_[4];
  std::uint64_t length_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
};

}  // namespace repro
