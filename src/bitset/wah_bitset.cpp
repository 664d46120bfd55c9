#include "bitset/wah_bitset.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "bitset/bitset_view.h"

namespace gsb::bits {
namespace {

constexpr std::uint32_t kGroupMask = 0x7fffffffu;  // low 31 bits
constexpr std::uint32_t kFillFlag = 0x80000000u;   // MSB: fill word
constexpr std::uint32_t kFillBit = 0x40000000u;    // fill value (0 or 1)
constexpr std::uint32_t kCountMask = 0x3fffffffu;  // 30-bit run length

constexpr bool is_fill(std::uint32_t word) noexcept {
  return (word & kFillFlag) != 0;
}
constexpr bool fill_value(std::uint32_t word) noexcept {
  return (word & kFillBit) != 0;
}
constexpr std::uint32_t fill_count(std::uint32_t word) noexcept {
  return word & kCountMask;
}
constexpr std::uint32_t make_fill(bool value, std::uint32_t count) noexcept {
  return kFillFlag | (value ? kFillBit : 0u) | count;
}

}  // namespace

/// Streams the logical sequence of 31-bit groups out of a compressed word
/// vector, one group at a time (fills are expanded lazily).
class WahBitset::GroupCursor {
 public:
  explicit GroupCursor(const std::vector<std::uint32_t>& words) noexcept
      : words_(&words) {}

  /// Returns the next group's payload.  Caller must not read past the
  /// logical group count.
  std::uint32_t next() noexcept {
    const std::uint32_t word = (*words_)[index_];
    if (!is_fill(word)) {
      ++index_;
      return word & kGroupMask;
    }
    const std::uint32_t payload = fill_value(word) ? kGroupMask : 0u;
    if (++consumed_ == fill_count(word)) {
      ++index_;
      consumed_ = 0;
    }
    return payload;
  }

  /// Number of groups remaining in the current fill (1 for literals).
  /// Enables run-skipping in the compressed-domain operators.
  std::uint32_t run_remaining() const noexcept {
    const std::uint32_t word = (*words_)[index_];
    if (!is_fill(word)) return 1;
    return fill_count(word) - consumed_;
  }

  /// True if the cursor currently sits inside a fill of the given value.
  bool at_fill(bool value) const noexcept {
    const std::uint32_t word = (*words_)[index_];
    return is_fill(word) && fill_value(word) == value;
  }

  /// Skips \p groups groups; only valid while inside a single fill run.
  void skip(std::uint32_t groups) noexcept {
    const std::uint32_t word = (*words_)[index_];
    assert(is_fill(word) && consumed_ + groups <= fill_count(word));
    consumed_ += groups;
    if (consumed_ == fill_count(word)) {
      ++index_;
      consumed_ = 0;
    }
  }

 private:
  const std::vector<std::uint32_t>* words_;
  std::size_t index_ = 0;
  std::uint32_t consumed_ = 0;
};

void WahBitset::append_group(std::uint32_t group) {
  group &= kGroupMask;
  const bool uniform0 = group == 0;
  const bool uniform1 = group == kGroupMask;
  if ((uniform0 || uniform1) && !words_.empty() && is_fill(words_.back()) &&
      fill_value(words_.back()) == uniform1 &&
      fill_count(words_.back()) < kCountMask) {
    ++words_.back();
    return;
  }
  if (uniform0 || uniform1) {
    words_.push_back(make_fill(uniform1, 1));
  } else {
    words_.push_back(group);
  }
}

WahBitset WahBitset::compress(BitsetView bits) {
  WahBitset out;
  out.nbits_ = bits.size();
  const std::size_t groups = (bits.size() + kGroupBits - 1) / kGroupBits;
  out.words_.reserve(groups / 4 + 4);
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint32_t payload = 0;
    const std::size_t base = g * kGroupBits;
    const std::size_t limit = std::min<std::size_t>(kGroupBits,
                                                    bits.size() - base);
    // Gather up to 31 bits spanning at most two 64-bit source words.
    for (std::size_t b = 0; b < limit; ++b) {
      if (bits.test(base + b)) payload |= 1u << b;
    }
    out.append_group(payload);
  }
  return out;
}

DynamicBitset WahBitset::decompress() const {
  DynamicBitset out(nbits_);
  std::size_t bit = 0;
  GroupCursor cursor(words_);
  const std::size_t groups = (nbits_ + kGroupBits - 1) / kGroupBits;
  for (std::size_t g = 0; g < groups; ++g) {
    std::uint32_t payload = cursor.next();
    while (payload != 0) {
      const int b = __builtin_ctz(payload);
      const std::size_t pos = bit + static_cast<std::size_t>(b);
      if (pos < nbits_) out.set(pos);
      payload &= payload - 1;
    }
    bit += kGroupBits;
  }
  return out;
}

std::size_t WahBitset::count() const noexcept {
  std::size_t total = 0;
  for (std::uint32_t word : words_) {
    if (is_fill(word)) {
      if (fill_value(word)) {
        total += static_cast<std::size_t>(fill_count(word)) * kGroupBits;
      }
    } else {
      total += popcount(word);
    }
  }
  // A trailing 1-fill may cover bits past nbits_; the encoder only emits
  // groups up to the logical length, and partial final groups are stored as
  // literals with zero padding, so no correction is needed except when the
  // final group is part of a 1-fill.
  const std::size_t groups = (nbits_ + kGroupBits - 1) / kGroupBits;
  const std::size_t logical = groups * kGroupBits;
  if (logical > nbits_ && !words_.empty() && is_fill(words_.back()) &&
      fill_value(words_.back())) {
    total -= logical - nbits_;
  }
  return total;
}

bool WahBitset::any() const noexcept {
  for (std::uint32_t word : words_) {
    if (is_fill(word)) {
      if (fill_value(word)) return true;
    } else if ((word & kGroupMask) != 0) {
      return true;
    }
  }
  return false;
}

WahBitset WahBitset::and_with(const WahBitset& other) const {
  if (nbits_ != other.nbits_) {
    throw std::invalid_argument("WahBitset::and_with: size mismatch");
  }
  WahBitset out;
  out.nbits_ = nbits_;
  const std::size_t groups = (nbits_ + kGroupBits - 1) / kGroupBits;
  GroupCursor a(words_);
  GroupCursor b(other.words_);
  std::size_t g = 0;
  while (g < groups) {
    // Run-skipping: a 0-fill on either side forces a 0-fill in the output.
    if (a.at_fill(false) || b.at_fill(false)) {
      const std::uint32_t runa = a.at_fill(false) ? a.run_remaining() : 0;
      const std::uint32_t runb = b.at_fill(false) ? b.run_remaining() : 0;
      std::uint32_t run = std::max(runa, runb);
      run = std::min<std::uint32_t>(run, static_cast<std::uint32_t>(groups - g));
      // Advance both cursors by `run` groups.
      std::uint32_t advanced = 0;
      while (advanced < run) {
        const std::uint32_t step =
            std::min({run - advanced, a.run_remaining(), b.run_remaining()});
        if (a.at_fill(true) || a.at_fill(false)) {
          a.skip(step);
        } else {
          a.next();
        }
        if (b.at_fill(true) || b.at_fill(false)) {
          b.skip(step);
        } else {
          b.next();
        }
        advanced += step;
      }
      for (std::uint32_t i = 0; i < run; ++i) out.append_group(0);
      g += run;
      continue;
    }
    out.append_group(a.next() & b.next());
    ++g;
  }
  return out;
}

WahBitset WahBitset::or_with(const WahBitset& other) const {
  if (nbits_ != other.nbits_) {
    throw std::invalid_argument("WahBitset::or_with: size mismatch");
  }
  WahBitset out;
  out.nbits_ = nbits_;
  const std::size_t groups = (nbits_ + kGroupBits - 1) / kGroupBits;
  GroupCursor a(words_);
  GroupCursor b(other.words_);
  for (std::size_t g = 0; g < groups; ++g) {
    out.append_group(a.next() | b.next());
  }
  return out;
}

bool WahBitset::intersects(const WahBitset& a, const WahBitset& b) noexcept {
  assert(a.nbits_ == b.nbits_);
  const std::size_t groups = (a.nbits_ + kGroupBits - 1) / kGroupBits;
  GroupCursor ca(a.words_);
  GroupCursor cb(b.words_);
  std::size_t g = 0;
  while (g < groups) {
    if (ca.at_fill(false) || cb.at_fill(false)) {
      const std::uint32_t runa = ca.at_fill(false) ? ca.run_remaining() : 0;
      const std::uint32_t runb = cb.at_fill(false) ? cb.run_remaining() : 0;
      std::uint32_t run = std::max(runa, runb);
      run = std::min<std::uint32_t>(run, static_cast<std::uint32_t>(groups - g));
      std::uint32_t advanced = 0;
      while (advanced < run) {
        const std::uint32_t step =
            std::min({run - advanced, ca.run_remaining(), cb.run_remaining()});
        if (ca.at_fill(true) || ca.at_fill(false)) {
          ca.skip(step);
        } else {
          ca.next();
        }
        if (cb.at_fill(true) || cb.at_fill(false)) {
          cb.skip(step);
        } else {
          cb.next();
        }
        advanced += step;
      }
      g += run;
      continue;
    }
    if ((ca.next() & cb.next()) != 0) return true;
    ++g;
  }
  return false;
}

}  // namespace gsb::bits
