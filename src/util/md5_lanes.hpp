// The kernels behind Md5::digest_many, one entry per instruction set
// this build compiles. Md5::digest_many runs the first entry the CPU
// supports, chosen once per process; tests reach every entry here, so
// each is checked against Md5::digest on any CPU that can run it.
#pragma once

#include <cstdint>
#include <span>

#include "util/md5.hpp"

namespace repro::md5_lanes {

using Messages = std::span<const std::span<const std::uint8_t>>;

struct Kernel {
  const char* name;
  bool (*supported)() noexcept;
  /// Writes out[i] = Md5::digest(messages[i]); `out` is as long as
  /// `messages`.
  void (*run)(Messages messages, std::span<Md5Digest> out) noexcept;
};

/// Widest first: "avx512vl" and "avx2" on x86-64 builds, then "scalar",
/// which runs anywhere.
[[nodiscard]] std::span<const Kernel> kernels() noexcept;

}  // namespace repro::md5_lanes
