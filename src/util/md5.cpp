#include "util/md5.hpp"

#include <cstring>

#include "util/hex.hpp"

namespace repro {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

constexpr std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

// One step per round function: a = b + ((a + f(b, c, d) + x + t) <<< s),
// where x is a message word and t the integer part of
// abs(sin(i + 1)) * 2^32 for step i. f and g use the equivalent
// select forms of RFC 1321's (b & c) | (~b & d) and (b & d) | (c & ~d).
template <int S>
inline void step_f(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t t) noexcept {
  a = b + rotl32(a + (d ^ (b & (c ^ d))) + x + t, S);
}

template <int S>
inline void step_g(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t t) noexcept {
  a = b + rotl32(a + (c ^ (d & (b ^ c))) + x + t, S);
}

template <int S>
inline void step_h(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t t) noexcept {
  a = b + rotl32(a + (b ^ c ^ d) + x + t, S);
}

template <int S>
inline void step_i(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t t) noexcept {
  a = b + rotl32(a + (c ^ (b | ~d)) + x + t, S);
}

}  // namespace

Md5::Md5() noexcept {
  std::memcpy(state_, kInit, sizeof(state_));
}

void Md5::process_block(const std::uint8_t* block) noexcept {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 3]) << 24;
  }
  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  // Round 1: message words in order.
  step_f<7>(a, b, c, d, m[0], 0xd76aa478u);
  step_f<12>(d, a, b, c, m[1], 0xe8c7b756u);
  step_f<17>(c, d, a, b, m[2], 0x242070dbu);
  step_f<22>(b, c, d, a, m[3], 0xc1bdceeeu);
  step_f<7>(a, b, c, d, m[4], 0xf57c0fafu);
  step_f<12>(d, a, b, c, m[5], 0x4787c62au);
  step_f<17>(c, d, a, b, m[6], 0xa8304613u);
  step_f<22>(b, c, d, a, m[7], 0xfd469501u);
  step_f<7>(a, b, c, d, m[8], 0x698098d8u);
  step_f<12>(d, a, b, c, m[9], 0x8b44f7afu);
  step_f<17>(c, d, a, b, m[10], 0xffff5bb1u);
  step_f<22>(b, c, d, a, m[11], 0x895cd7beu);
  step_f<7>(a, b, c, d, m[12], 0x6b901122u);
  step_f<12>(d, a, b, c, m[13], 0xfd987193u);
  step_f<17>(c, d, a, b, m[14], 0xa679438eu);
  step_f<22>(b, c, d, a, m[15], 0x49b40821u);
  // Round 2: word (5i + 1) mod 16.
  step_g<5>(a, b, c, d, m[1], 0xf61e2562u);
  step_g<9>(d, a, b, c, m[6], 0xc040b340u);
  step_g<14>(c, d, a, b, m[11], 0x265e5a51u);
  step_g<20>(b, c, d, a, m[0], 0xe9b6c7aau);
  step_g<5>(a, b, c, d, m[5], 0xd62f105du);
  step_g<9>(d, a, b, c, m[10], 0x02441453u);
  step_g<14>(c, d, a, b, m[15], 0xd8a1e681u);
  step_g<20>(b, c, d, a, m[4], 0xe7d3fbc8u);
  step_g<5>(a, b, c, d, m[9], 0x21e1cde6u);
  step_g<9>(d, a, b, c, m[14], 0xc33707d6u);
  step_g<14>(c, d, a, b, m[3], 0xf4d50d87u);
  step_g<20>(b, c, d, a, m[8], 0x455a14edu);
  step_g<5>(a, b, c, d, m[13], 0xa9e3e905u);
  step_g<9>(d, a, b, c, m[2], 0xfcefa3f8u);
  step_g<14>(c, d, a, b, m[7], 0x676f02d9u);
  step_g<20>(b, c, d, a, m[12], 0x8d2a4c8au);
  // Round 3: word (3i + 5) mod 16.
  step_h<4>(a, b, c, d, m[5], 0xfffa3942u);
  step_h<11>(d, a, b, c, m[8], 0x8771f681u);
  step_h<16>(c, d, a, b, m[11], 0x6d9d6122u);
  step_h<23>(b, c, d, a, m[14], 0xfde5380cu);
  step_h<4>(a, b, c, d, m[1], 0xa4beea44u);
  step_h<11>(d, a, b, c, m[4], 0x4bdecfa9u);
  step_h<16>(c, d, a, b, m[7], 0xf6bb4b60u);
  step_h<23>(b, c, d, a, m[10], 0xbebfbc70u);
  step_h<4>(a, b, c, d, m[13], 0x289b7ec6u);
  step_h<11>(d, a, b, c, m[0], 0xeaa127fau);
  step_h<16>(c, d, a, b, m[3], 0xd4ef3085u);
  step_h<23>(b, c, d, a, m[6], 0x04881d05u);
  step_h<4>(a, b, c, d, m[9], 0xd9d4d039u);
  step_h<11>(d, a, b, c, m[12], 0xe6db99e5u);
  step_h<16>(c, d, a, b, m[15], 0x1fa27cf8u);
  step_h<23>(b, c, d, a, m[2], 0xc4ac5665u);
  // Round 4: word 7i mod 16.
  step_i<6>(a, b, c, d, m[0], 0xf4292244u);
  step_i<10>(d, a, b, c, m[7], 0x432aff97u);
  step_i<15>(c, d, a, b, m[14], 0xab9423a7u);
  step_i<21>(b, c, d, a, m[5], 0xfc93a039u);
  step_i<6>(a, b, c, d, m[12], 0x655b59c3u);
  step_i<10>(d, a, b, c, m[3], 0x8f0ccc92u);
  step_i<15>(c, d, a, b, m[10], 0xffeff47du);
  step_i<21>(b, c, d, a, m[1], 0x85845dd1u);
  step_i<6>(a, b, c, d, m[8], 0x6fa87e4fu);
  step_i<10>(d, a, b, c, m[15], 0xfe2ce6e0u);
  step_i<15>(c, d, a, b, m[6], 0xa3014314u);
  step_i<21>(b, c, d, a, m[13], 0x4e0811a1u);
  step_i<6>(a, b, c, d, m[4], 0xf7537e82u);
  step_i<10>(d, a, b, c, m[11], 0xbd3af235u);
  step_i<15>(c, d, a, b, m[2], 0x2ad7d2bbu);
  step_i<21>(b, c, d, a, m[9], 0xeb86d391u);
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(std::span<const std::uint8_t> data) noexcept {
  length_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_ + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Md5Digest Md5::finish() noexcept {
  const std::uint64_t bit_length = length_ * 8;
  const std::uint8_t pad_one = 0x80;
  update(std::span<const std::uint8_t>{&pad_one, 1});
  const std::uint8_t zero = 0x00;
  while (buffered_ != 56) update(std::span<const std::uint8_t>{&zero, 1});
  std::uint8_t length_bytes[8];
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<std::uint8_t>((bit_length >> (8 * i)) & 0xff);
  }
  update(std::span<const std::uint8_t>{length_bytes, 8});
  Md5Digest out{};
  for (int i = 0; i < 4; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] & 0xff);
    out[i * 4 + 1] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xff);
    out[i * 4 + 2] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xff);
    out[i * 4 + 3] = static_cast<std::uint8_t>((state_[i] >> 24) & 0xff);
  }
  return out;
}

Md5Digest Md5::digest(std::span<const std::uint8_t> data) noexcept {
  Md5 ctx;
  ctx.update(data);
  return ctx.finish();
}

std::string Md5::hex_digest(std::span<const std::uint8_t> data) {
  const Md5Digest d = digest(data);
  return hex_encode(std::span<const std::uint8_t>{d.data(), d.size()});
}

}  // namespace repro
