#ifndef GSB_BITSET_WAH_BITSET_H
#define GSB_BITSET_WAH_BITSET_H

/// \file wah_bitset.h
/// Word-Aligned Hybrid (WAH) compressed bitmap.
///
/// The paper's conclusion notes that "the sparcity of the bitmap memory
/// index can potentially provide high compression rate and allow for bitwise
/// operations to be performed on the compressed data. The work in this
/// direction is underway."  This module completes that direction: WAH
/// encodes a bit string as a sequence of 32-bit words that are either
/// literals (31 payload bits) or fills (a run of identical 31-bit groups),
/// and implements AND / OR / population-count / any-bit directly on the
/// compressed form.  Neighborhoods of sparse genome-scale graphs (edge
/// density well below 1%) compress by one to two orders of magnitude.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitset/dynamic_bitset.h"

namespace gsb::bits {

/// Immutable WAH-compressed bitmap.
///
/// Encoding (per 32-bit word, MSB first):
///   0 | 31 payload bits                      -- literal group
///   1 | fill bit | 30-bit count              -- `count` groups of the fill bit
/// The logical length (number of bits) is stored separately; the final group
/// may be partial.
class WahBitset {
 public:
  static constexpr std::uint32_t kGroupBits = 31;

  WahBitset() = default;

  /// Compresses an uncompressed bit string (a DynamicBitset converts
  /// implicitly; a view into a mapped adjacency row works equally).
  static WahBitset compress(BitsetView bits);

  /// Expands back to an uncompressed bitset.
  [[nodiscard]] DynamicBitset decompress() const;

  /// Logical number of bit positions.
  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }

  /// Compressed storage footprint in bytes.
  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return words_.size() * sizeof(std::uint32_t);
  }

  /// Uncompressed-equivalent footprint in bytes (for compression-ratio
  /// reporting).
  [[nodiscard]] std::size_t uncompressed_bytes() const noexcept {
    return DynamicBitset::word_count(nbits_) * sizeof(std::uint64_t);
  }

  /// uncompressed_bytes() / size_bytes(); >1 means compression won.
  [[nodiscard]] double compression_ratio() const noexcept {
    return size_bytes() == 0
               ? 1.0
               : static_cast<double>(uncompressed_bytes()) /
                     static_cast<double>(size_bytes());
  }

  /// Population count computed on the compressed form.
  [[nodiscard]] std::size_t count() const noexcept;

  /// True if any bit is set; computed on the compressed form.
  [[nodiscard]] bool any() const noexcept;

  /// Bitwise AND computed entirely in the compressed domain.
  /// Both operands must have equal size().
  [[nodiscard]] WahBitset and_with(const WahBitset& other) const;

  /// Bitwise OR computed entirely in the compressed domain.
  [[nodiscard]] WahBitset or_with(const WahBitset& other) const;

  /// True iff (a AND b) is non-empty, without materializing the result.
  static bool intersects(const WahBitset& a, const WahBitset& b) noexcept;

  bool operator==(const WahBitset& other) const noexcept {
    return nbits_ == other.nbits_ && words_ == other.words_;
  }

  /// Raw compressed words (tests / diagnostics).
  [[nodiscard]] const std::vector<std::uint32_t>& words() const noexcept {
    return words_;
  }

 private:
  /// Appends one literal 31-bit group, merging into fills when possible.
  void append_group(std::uint32_t group);

  /// Iteration support: a cursor that yields consecutive 31-bit groups.
  class GroupCursor;

  std::size_t nbits_ = 0;
  std::vector<std::uint32_t> words_;
};

}  // namespace gsb::bits

#endif  // GSB_BITSET_WAH_BITSET_H
