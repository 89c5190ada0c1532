#include "proto/region.hpp"

#include <algorithm>
#include <bit>

namespace repro::proto {

namespace {

/// Bit-parallel LCS rows (Allison & Dix 1986; Hyyrö 2004). Row i is a
/// bit vector over `b`, one bit per byte, packed into ceil(|b| / 64)
/// 64-bit words: bit j-1 is 0 exactly when L(i, j) = L(i, j-1) + 1, where
/// L(i, j) is the LCS length of a[0, i) and b[0, j). So L(i, j) is the
/// number of zero bits among row i's low j bits. Row 0 is all ones, and
/// each byte of `a` moves to the next row as V' = (V + (V & M)) | (V & ~M)
/// with M that byte's match mask over `b`, the carry passing between
/// words. Bits past |b| stay 1.
class LcsRows {
 public:
  /// Keeps rows 0..|a| when `keep_rows`, else only the last one. `b`
  /// must not be empty.
  LcsRows(const Bytes& a, const Bytes& b, bool keep_rows)
      : words_((b.size() + 63) / 64),
        keep_rows_(keep_rows),
        rows_((keep_rows ? a.size() + 1 : 1) * words_, ~std::uint64_t{0}) {
    std::vector<std::uint64_t> masks(256 * words_, 0);
    for (std::size_t j = 0; j < b.size(); ++j) {
      masks[b[j] * words_ + j / 64] |= std::uint64_t{1} << (j % 64);
    }
    std::uint64_t* row = rows_.data();
    for (const std::uint8_t byte : a) {
      const std::uint64_t* match = &masks[byte * words_];
      std::uint64_t* next = keep_rows ? row + words_ : row;
      std::uint64_t carry = 0;
      for (std::size_t k = 0; k < words_; ++k) {
        const std::uint64_t v = row[k];
        const std::uint64_t sum = v + (v & match[k]);
        const std::uint64_t total = sum + carry;
        carry = static_cast<std::uint64_t>(sum < v) |
                static_cast<std::uint64_t>(total < sum);
        next[k] = total | (v & ~match[k]);
      }
      row = next;
    }
  }

  /// L(i, j); `i` must be |a| unless the rows were kept.
  [[nodiscard]] std::size_t length(std::size_t i, std::size_t j) const {
    const std::uint64_t* row = rows_.data() + (keep_rows_ ? i * words_ : 0);
    std::size_t ones = 0;
    for (std::size_t k = 0; k < j / 64; ++k) {
      ones += static_cast<std::size_t>(std::popcount(row[k]));
    }
    if (j % 64 != 0) {
      const std::uint64_t low = (std::uint64_t{1} << (j % 64)) - 1;
      ones += static_cast<std::size_t>(std::popcount(row[j / 64] & low));
    }
    return j - ones;
  }

 private:
  std::size_t words_;
  bool keep_rows_;
  std::vector<std::uint64_t> rows_;
};

}  // namespace

Bytes longest_common_subsequence(const Bytes& a, const Bytes& b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  if (n == 0 || m == 0) return {};
  const LcsRows rows{a, b, /*keep_rows=*/true};
  // Walk back as over the full DP table: diagonal on a byte match,
  // otherwise up when L(i-1, j) >= L(i, j-1). The bytes, not only the
  // length, are those the table yields.
  Bytes out(rows.length(n, m));
  std::size_t i = n;
  std::size_t j = m;
  std::size_t k = out.size();
  while (i > 0 && j > 0) {
    if (a[i - 1] == b[j - 1]) {
      out[--k] = a[i - 1];
      --i;
      --j;
    } else if (rows.length(i - 1, j) >= rows.length(i, j - 1)) {
      --i;
    } else {
      --j;
    }
  }
  return out;
}

double message_similarity(const Bytes& a, const Bytes& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const std::size_t common =
      LcsRows{a, b, /*keep_rows=*/false}.length(a.size(), b.size());
  return 2.0 * static_cast<double>(common) /
         static_cast<double>(a.size() + b.size());
}

namespace {

/// Leftmost greedy embedding positions of subsequence `needle` in
/// `haystack`; returns false if `needle` is not a subsequence.
bool embed(const Bytes& needle, const Bytes& haystack,
           std::vector<std::size_t>& positions) {
  positions.clear();
  positions.reserve(needle.size());
  std::size_t h = 0;
  for (const std::uint8_t byte : needle) {
    while (h < haystack.size() && haystack[h] != byte) ++h;
    if (h == haystack.size()) return false;
    positions.push_back(h++);
  }
  return true;
}

}  // namespace

std::vector<Region> region_analysis(const std::vector<const Bytes*>& messages,
                                    std::size_t min_region_length) {
  std::vector<Region> regions;
  if (messages.empty()) return regions;

  // Iterated LCS: bytes common to all messages, in order.
  Bytes common = *messages.front();
  for (std::size_t i = 1; i < messages.size() && !common.empty(); ++i) {
    common = longest_common_subsequence(common, *messages[i]);
  }
  if (common.empty()) return regions;

  // Embed the common subsequence in every message and split it wherever
  // any message breaks contiguity: the surviving runs are bytes that are
  // contiguous (hence structurally fixed) in all instances.
  std::vector<std::vector<std::size_t>> embeddings(messages.size());
  std::vector<std::size_t> scratch;
  for (std::size_t m = 0; m < messages.size(); ++m) {
    if (!embed(common, *messages[m], scratch)) return regions;  // defensive
    embeddings[m] = scratch;
  }

  Bytes run;
  const auto flush = [&] {
    if (run.size() >= min_region_length) regions.push_back(Region{run});
    run.clear();
  };
  for (std::size_t k = 0; k < common.size(); ++k) {
    if (k > 0) {
      bool contiguous = true;
      for (const auto& positions : embeddings) {
        if (positions[k] != positions[k - 1] + 1) {
          contiguous = false;
          break;
        }
      }
      if (!contiguous) flush();
    }
    run.push_back(common[k]);
  }
  flush();
  return regions;
}

bool regions_match(const std::vector<Region>& regions,
                   const Bytes& candidate) noexcept {
  auto cursor = candidate.begin();
  for (const Region& region : regions) {
    cursor = std::search(cursor, candidate.end(), region.bytes.begin(),
                         region.bytes.end());
    if (cursor == candidate.end() && !region.bytes.empty()) return false;
    cursor += static_cast<long>(region.bytes.size());
  }
  return true;
}

std::size_t total_region_bytes(const std::vector<Region>& regions) noexcept {
  std::size_t total = 0;
  for (const Region& region : regions) total += region.bytes.size();
  return total;
}

}  // namespace repro::proto
