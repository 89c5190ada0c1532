#include "util/md5.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/md5_lanes.hpp"

namespace repro {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

// One step per round function: a = b + ((a + f(b, c, d) + x + t) <<< s),
// where x is a message word and t the integer part of
// abs(sin(i + 1)) * 2^32 for step i. f and g use the equivalent
// select forms of RFC 1321's (b & c) | (~b & d) and (b & d) | (c & ~d).
//
// `W` is std::uint32_t for one message, or a vector of eight 32-bit
// lanes for eight messages at once: the same text serves both, and the
// compiler picks the instructions of the function it is inlined into
// (vprold and vpternlogd where AVX-512VL is enabled). Operands go by
// reference, so no vector crosses a call boundary by value.
template <int S, class W>
[[gnu::always_inline]] inline void rotate_into(W& a, const W& b,
                                               const W& sum) noexcept {
  a = b + ((sum << S) | (sum >> (32 - S)));
}

template <int S, class W>
[[gnu::always_inline]] inline void step_f(W& a, const W& b, const W& c,
                                          const W& d, const W& x,
                                          std::uint32_t t) noexcept {
  rotate_into<S>(a, b, a + (d ^ (b & (c ^ d))) + x + t);
}

template <int S, class W>
[[gnu::always_inline]] inline void step_g(W& a, const W& b, const W& c,
                                          const W& d, const W& x,
                                          std::uint32_t t) noexcept {
  rotate_into<S>(a, b, a + (c ^ (d & (b ^ c))) + x + t);
}

template <int S, class W>
[[gnu::always_inline]] inline void step_h(W& a, const W& b, const W& c,
                                          const W& d, const W& x,
                                          std::uint32_t t) noexcept {
  rotate_into<S>(a, b, a + (b ^ c ^ d) + x + t);
}

template <int S, class W>
[[gnu::always_inline]] inline void step_i(W& a, const W& b, const W& c,
                                          const W& d, const W& x,
                                          std::uint32_t t) noexcept {
  rotate_into<S>(a, b, a + (c ^ (b | ~d)) + x + t);
}

/// MD5's compression function: folds the sixteen words `m` of one block
/// into `s`.
template <class W>
[[gnu::always_inline]] inline void compress_words(W (&s)[4],
                                                  const W (&m)[16]) noexcept {
  W a = s[0];
  W b = s[1];
  W c = s[2];
  W d = s[3];
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
  s[0] += a;
  s[1] += b;
  s[2] += c;
  s[3] += d;
}

void compress(std::uint32_t (&state)[4], const std::uint8_t* block) noexcept {
  std::uint32_t m[16] = {};
  for (int i = 0; i < 16; ++i) {
    m[i] = static_cast<std::uint32_t>(block[i * 4]) |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 8 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 3]) << 24;
  }
  compress_words(state, m);
}

/// Writes a message's last blocks to `out`: its final `rest_size` (< 64)
/// bytes, 0x80, zeros, and the message's bit length, little-endian, in
/// the last eight bytes. Returns how many blocks that takes: one, or two
/// when fewer than nine bytes are left after the message's own.
std::size_t pad_tail(const std::uint8_t* rest, std::size_t rest_size,
                     std::uint64_t length, std::uint8_t (&out)[128]) noexcept {
  const std::size_t blocks = rest_size < 56 ? 1 : 2;
  if (rest_size > 0) std::memcpy(out, rest, rest_size);
  out[rest_size] = 0x80;
  const std::size_t end = blocks * 64 - 8;
  std::memset(out + rest_size + 1, 0, end - rest_size - 1);
  const std::uint64_t bits = length * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    out[end + i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return blocks;
}

Md5Digest digest_of(const std::uint32_t (&state)[4]) noexcept {
  Md5Digest out{};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t k = 0; k < 4; ++k) {
      out[i * 4 + k] = static_cast<std::uint8_t>(state[i] >> (8 * k));
    }
  }
  return out;
}

void digest_each(md5_lanes::Messages messages,
                 std::span<Md5Digest> out) noexcept {
  for (std::size_t i = 0; i < messages.size(); ++i) {
    out[i] = Md5::digest(messages[i]);
  }
}

bool always() noexcept { return true; }

#if defined(__x86_64__) && defined(__has_builtin)
#if __has_builtin(__builtin_shufflevector)
#define REPRO_MD5_LANES 1
#endif
#endif

#if defined(REPRO_MD5_LANES)

// The multi-buffer method of Gueron & Krasnov, "Simultaneous Hashing of
// Multiple Messages" (2012): lane k of each vector carries the state of
// message k's hash, so one instruction stream advances eight hashes.
// The kernel below is plain vector arithmetic, written once and inlined
// into one entry point per instruction set; each entry's target
// attribute decides the instructions it compiles to.
using Lanes = std::uint32_t __attribute__((vector_size(32)));
constexpr std::size_t kLanes = 8;

/// Transposes the 8x8 words at `r` in place, so that row k ends up
/// holding word k of every input row: 32-bit unpacks, 64-bit unpacks,
/// then 128-bit permutes.
[[gnu::always_inline]] inline void transpose(Lanes* r) noexcept {
  const Lanes t0 = __builtin_shufflevector(r[0], r[1], 0, 8, 1, 9, 4, 12, 5, 13);
  const Lanes t1 = __builtin_shufflevector(r[0], r[1], 2, 10, 3, 11, 6, 14, 7, 15);
  const Lanes t2 = __builtin_shufflevector(r[2], r[3], 0, 8, 1, 9, 4, 12, 5, 13);
  const Lanes t3 = __builtin_shufflevector(r[2], r[3], 2, 10, 3, 11, 6, 14, 7, 15);
  const Lanes t4 = __builtin_shufflevector(r[4], r[5], 0, 8, 1, 9, 4, 12, 5, 13);
  const Lanes t5 = __builtin_shufflevector(r[4], r[5], 2, 10, 3, 11, 6, 14, 7, 15);
  const Lanes t6 = __builtin_shufflevector(r[6], r[7], 0, 8, 1, 9, 4, 12, 5, 13);
  const Lanes t7 = __builtin_shufflevector(r[6], r[7], 2, 10, 3, 11, 6, 14, 7, 15);
  const Lanes u0 = __builtin_shufflevector(t0, t2, 0, 1, 8, 9, 4, 5, 12, 13);
  const Lanes u1 = __builtin_shufflevector(t0, t2, 2, 3, 10, 11, 6, 7, 14, 15);
  const Lanes u2 = __builtin_shufflevector(t1, t3, 0, 1, 8, 9, 4, 5, 12, 13);
  const Lanes u3 = __builtin_shufflevector(t1, t3, 2, 3, 10, 11, 6, 7, 14, 15);
  const Lanes u4 = __builtin_shufflevector(t4, t6, 0, 1, 8, 9, 4, 5, 12, 13);
  const Lanes u5 = __builtin_shufflevector(t4, t6, 2, 3, 10, 11, 6, 7, 14, 15);
  const Lanes u6 = __builtin_shufflevector(t5, t7, 0, 1, 8, 9, 4, 5, 12, 13);
  const Lanes u7 = __builtin_shufflevector(t5, t7, 2, 3, 10, 11, 6, 7, 14, 15);
  r[0] = __builtin_shufflevector(u0, u4, 0, 1, 2, 3, 8, 9, 10, 11);
  r[1] = __builtin_shufflevector(u1, u5, 0, 1, 2, 3, 8, 9, 10, 11);
  r[2] = __builtin_shufflevector(u2, u6, 0, 1, 2, 3, 8, 9, 10, 11);
  r[3] = __builtin_shufflevector(u3, u7, 0, 1, 2, 3, 8, 9, 10, 11);
  r[4] = __builtin_shufflevector(u0, u4, 4, 5, 6, 7, 12, 13, 14, 15);
  r[5] = __builtin_shufflevector(u1, u5, 4, 5, 6, 7, 12, 13, 14, 15);
  r[6] = __builtin_shufflevector(u2, u6, 4, 5, 6, 7, 12, 13, 14, 15);
  r[7] = __builtin_shufflevector(u3, u7, 4, 5, 6, 7, 12, 13, 14, 15);
}

/// One lane's message: its whole blocks are read in place, its padded
/// tail from `tail`. An idle lane has no blocks and hashes its tail
/// buffer, whose result nobody reads.
struct Lane {
  const std::uint8_t* body = nullptr;
  std::size_t body_blocks = 0;
  std::size_t blocks = 0;  // body and tail
  std::size_t done = 0;    // blocks hashed so far
  std::size_t message = 0;
  std::uint8_t tail[128] = {};

  [[nodiscard]] bool busy() const noexcept { return done < blocks; }
  [[nodiscard]] const std::uint8_t* block() const noexcept {
    if (done < body_blocks) return body + 64 * done;
    return busy() ? tail + 64 * (done - body_blocks) : tail;
  }
  void start(std::span<const std::uint8_t> data, std::size_t index) noexcept {
    message = index;
    body = data.data();
    body_blocks = data.size() / 64;
    blocks = body_blocks + pad_tail(data.data() + 64 * body_blocks,
                                    data.size() % 64, data.size(), tail);
    done = 0;
  }
};

[[gnu::always_inline]] inline void hash_lanes(
    md5_lanes::Messages messages, std::span<Md5Digest> out) noexcept {
  Lane lanes[kLanes];
  Lanes state[4] = {};
  std::size_t next = 0;  // the next message to start
  std::size_t busy = 0;  // lanes with a message
  for (std::size_t k = 0; k < kLanes; ++k) {
    for (std::size_t j = 0; j < 4; ++j) state[j][k] = kInit[j];
    if (next < messages.size()) {
      lanes[k].start(messages[next], next);
      ++next;
      ++busy;
    }
  }
  // Every lane stays busy while messages wait, so once fewer than two
  // are busy the queue is empty; a lone lane is finished by the scalar
  // function, which hashes one message faster than a mostly idle vector.
  while (busy > 1) {
    Lanes m[16] = {};
    for (std::size_t k = 0; k < kLanes; ++k) {
      const std::uint8_t* block = lanes[k].block();
      std::memcpy(&m[k], block, sizeof(Lanes));
      std::memcpy(&m[kLanes + k], block + sizeof(Lanes), sizeof(Lanes));
    }
    transpose(m);
    transpose(m + kLanes);
    compress_words(state, m);
    for (std::size_t k = 0; k < kLanes; ++k) {
      Lane& lane = lanes[k];
      if (!lane.busy() || ++lane.done < lane.blocks) continue;
      const std::uint32_t words[4] = {state[0][k], state[1][k], state[2][k],
                                      state[3][k]};
      out[lane.message] = digest_of(words);
      if (next < messages.size()) {
        for (std::size_t j = 0; j < 4; ++j) state[j][k] = kInit[j];
        lane.start(messages[next], next);
        ++next;
      } else {
        --busy;
      }
    }
  }
  for (std::size_t k = 0; k < kLanes; ++k) {
    Lane& lane = lanes[k];
    if (!lane.busy()) continue;
    std::uint32_t words[4] = {state[0][k], state[1][k], state[2][k],
                              state[3][k]};
    for (; lane.busy(); ++lane.done) compress(words, lane.block());
    out[lane.message] = digest_of(words);
  }
}

[[gnu::target("avx2,avx512f,avx512vl")]] void hash_lanes_avx512vl(
    md5_lanes::Messages messages, std::span<Md5Digest> out) noexcept {
  hash_lanes(messages, out);
}

[[gnu::target("avx2")]] void hash_lanes_avx2(
    md5_lanes::Messages messages, std::span<Md5Digest> out) noexcept {
  hash_lanes(messages, out);
}

bool has_avx512vl() noexcept {
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512vl");
  return supported;
}

bool has_avx2() noexcept {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}

#endif

constexpr md5_lanes::Kernel kKernels[] = {
#if defined(REPRO_MD5_LANES)
    {"avx512vl", &has_avx512vl, &hash_lanes_avx512vl},
    {"avx2", &has_avx2, &hash_lanes_avx2},
#endif
    {"scalar", &always, &digest_each},
};

}  // namespace

std::span<const md5_lanes::Kernel> md5_lanes::kernels() noexcept {
  return kKernels;
}

Md5::Md5() noexcept {
  std::memcpy(state_, kInit, sizeof(state_));
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
      compress(state_, buffer_);
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    compress(state_, data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Md5Digest Md5::finish() noexcept {
  std::uint8_t tail[128] = {};
  const std::size_t blocks = pad_tail(buffer_, buffered_, length_, tail);
  for (std::size_t i = 0; i < blocks; ++i) compress(state_, tail + 64 * i);
  return digest_of(state_);
}

Md5Digest Md5::digest(std::span<const std::uint8_t> data) noexcept {
  Md5 ctx;
  ctx.update(data);
  return ctx.finish();
}

void Md5::digest_many(std::span<const std::span<const std::uint8_t>> messages,
                      std::span<Md5Digest> out) {
  if (out.size() != messages.size()) {
    throw ConfigError("Md5::digest_many: needs one digest slot per message");
  }
  static const md5_lanes::Kernel* const kernel = [] {
    for (const md5_lanes::Kernel& candidate : md5_lanes::kernels()) {
      if (candidate.supported()) return &candidate;
    }
    return &md5_lanes::kernels().back();
  }();
  kernel->run(messages, out);
}

std::string Md5::hex_digest(std::span<const std::uint8_t> data) {
  const Md5Digest d = digest(data);
  return hex_encode(std::span<const std::uint8_t>{d.data(), d.size()});
}

}  // namespace repro
