// ScriptGen region analysis.
//
// Given a set of protocol messages assumed to be instances of the same
// logical request, region analysis separates the bytes every instance
// shares (fixed regions — protocol keywords, implementation-specific
// constants) from the bytes that vary between instances (mutating
// regions — transaction ids, random filenames, payload). Fixed regions
// become the matching labels of FSM transitions.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/message.hpp"

namespace repro::proto {

/// A maximal run of bytes shared (in order, contiguously) by all
/// messages of a group.
struct Region {
  Bytes bytes;
};

/// Longest common subsequence of two byte strings. Bit-parallel: one
/// pass over `a` of O(|a| * |b| / 64) word operations. Returns the same
/// bytes as the classic O(|a| * |b|) table walked back diagonal-first,
/// then up on ties.
[[nodiscard]] Bytes longest_common_subsequence(const Bytes& a, const Bytes& b);

/// Similarity in [0, 1]: 2*|LCS| / (|a| + |b|). Two empty messages have
/// similarity 1. Computes the LCS length only, in one row of bits.
[[nodiscard]] double message_similarity(const Bytes& a, const Bytes& b);

/// Extracts the fixed regions common to all messages: the runs of the
/// iterated LCS that occur contiguously and in order in every message.
/// Regions shorter than `min_region_length` are discarded as noise.
/// An empty input yields no regions.
[[nodiscard]] std::vector<Region> region_analysis(
    const std::vector<const Bytes*>& messages,
    std::size_t min_region_length = 3);

/// True if all regions occur in `candidate` in order without overlap.
[[nodiscard]] bool regions_match(const std::vector<Region>& regions,
                                 const Bytes& candidate) noexcept;

/// Total fixed bytes across regions; used to prefer the most specific
/// transition when several match.
[[nodiscard]] std::size_t total_region_bytes(
    const std::vector<Region>& regions) noexcept;

}  // namespace repro::proto
