#ifndef GSB_BITSET_BITSET_VIEW_H
#define GSB_BITSET_BITSET_VIEW_H

/// \file bitset_view.h
/// Non-owning view over a fixed-universe bit string.
///
/// The clique kernels consume neighborhoods purely through word-parallel
/// reads (AND, any-bit, popcount, set-bit iteration).  BitsetView is the
/// common currency those kernels operate on: it can point into a
/// DynamicBitset's heap words just as well as into a row of a memory-mapped
/// .gsbg bitmap section, which is what lets the enumerators run directly
/// off disk.
///
/// Invariant (shared with DynamicBitset, and guaranteed by the .gsbg
/// writer): bits at positions >= size() in the last word are zero.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gsb::bits {

/// Number of set bits in \p word.  Where the target has no POPCNT
/// instruction (x86 built without -mpopcnt) __builtin_popcountll is a call
/// into libgcc, so there it is a SWAR sum instead.
[[nodiscard]] inline std::size_t popcount(std::uint64_t word) noexcept {
#if defined(__POPCNT__) || !(defined(__x86_64__) || defined(__i386__))
  return static_cast<std::size_t>(__builtin_popcountll(word));
#else
  word -= (word >> 1) & 0x5555555555555555ULL;
  word = (word & 0x3333333333333333ULL) + ((word >> 2) & 0x3333333333333333ULL);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<std::size_t>((word * 0x0101010101010101ULL) >> 56);
#endif
}

class BitsetView {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kWordBits = 64;

  constexpr BitsetView() = default;

  /// View over \p nbits positions backed by \p words (must cover
  /// word_count(nbits) words and outlive the view).
  constexpr BitsetView(const Word* words, std::size_t nbits) noexcept
      : words_(words), nbits_(nbits) {}

  [[nodiscard]] std::size_t size() const noexcept { return nbits_; }
  [[nodiscard]] std::size_t num_words() const noexcept {
    return word_count(nbits_);
  }
  [[nodiscard]] std::span<const Word> words() const noexcept {
    return {words_, num_words()};
  }
  [[nodiscard]] const Word* data() const noexcept { return words_; }

  [[nodiscard]] bool test(std::size_t pos) const noexcept {
    return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1u;
  }

  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t total = 0;
    const std::size_t nw = num_words();
    for (std::size_t w = 0; w < nw; ++w) {
      total += popcount(words_[w]);
    }
    return total;
  }

  /// Population count of positions in [pos, size()).
  [[nodiscard]] std::size_t count_from(std::size_t pos) const noexcept {
    if (pos >= nbits_) return 0;
    std::size_t w = pos / kWordBits;
    std::size_t total =
        popcount(words_[w] & (~Word{0} << (pos % kWordBits)));
    const std::size_t nw = num_words();
    for (++w; w < nw; ++w) total += popcount(words_[w]);
    return total;
  }

  [[nodiscard]] bool none() const noexcept {
    const std::size_t nw = num_words();
    for (std::size_t w = 0; w < nw; ++w) {
      if (words_[w] != 0) return false;
    }
    return true;
  }
  [[nodiscard]] bool any() const noexcept { return !none(); }

  [[nodiscard]] std::size_t find_first() const noexcept {
    const std::size_t nw = num_words();
    for (std::size_t w = 0; w < nw; ++w) {
      if (words_[w] != 0) {
        return w * kWordBits +
               static_cast<std::size_t>(__builtin_ctzll(words_[w]));
      }
    }
    return nbits_;
  }

  [[nodiscard]] std::size_t find_next(std::size_t pos) const noexcept {
    ++pos;
    if (pos >= nbits_) return nbits_;
    std::size_t w = pos / kWordBits;
    Word word = words_[w] & (~Word{0} << (pos % kWordBits));
    const std::size_t nw = num_words();
    while (true) {
      if (word != 0) {
        return w * kWordBits + static_cast<std::size_t>(__builtin_ctzll(word));
      }
      if (++w >= nw) return nbits_;
      word = words_[w];
    }
  }

  /// Calls \p fn(index) for every set bit in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t nw = num_words();
    for (std::size_t w = 0; w < nw; ++w) {
      Word word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * kWordBits + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Materializes the set bits as a sorted vector of 32-bit indices.
  [[nodiscard]] std::vector<std::uint32_t> to_vector() const {
    std::vector<std::uint32_t> out;
    out.reserve(count());
    for_each([&](std::size_t index) {
      out.push_back(static_cast<std::uint32_t>(index));
    });
    return out;
  }

  /// True iff every set bit of this is also set in \p other (equal sizes).
  [[nodiscard]] bool is_subset_of(BitsetView other) const noexcept {
    const std::size_t nw = num_words();
    for (std::size_t w = 0; w < nw; ++w) {
      if ((words_[w] & ~other.words_[w]) != 0) return false;
    }
    return true;
  }

  /// True iff (a AND b) has any set bit; early-exits on the first hit.
  static bool intersects(BitsetView a, BitsetView b) noexcept {
    const std::size_t nw = a.num_words();
    for (std::size_t w = 0; w < nw; ++w) {
      if ((a.words_[w] & b.words_[w]) != 0) return true;
    }
    return false;
  }

  /// Population count of (a AND b) without materializing it.
  static std::size_t count_and(BitsetView a, BitsetView b) noexcept {
    std::size_t total = 0;
    const std::size_t nw = a.num_words();
    for (std::size_t w = 0; w < nw; ++w) {
      total += popcount(a.words_[w] & b.words_[w]);
    }
    return total;
  }

  friend bool operator==(BitsetView a, BitsetView b) noexcept {
    if (a.nbits_ != b.nbits_) return false;
    const std::size_t nw = a.num_words();
    for (std::size_t w = 0; w < nw; ++w) {
      if (a.words_[w] != b.words_[w]) return false;
    }
    return true;
  }

  static constexpr std::size_t word_count(std::size_t nbits) noexcept {
    return (nbits + kWordBits - 1) / kWordBits;
  }

 private:
  const Word* words_ = nullptr;
  std::size_t nbits_ = 0;
};

}  // namespace gsb::bits

#endif  // GSB_BITSET_BITSET_VIEW_H
