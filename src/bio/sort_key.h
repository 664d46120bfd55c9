#ifndef GSB_BIO_SORT_KEY_H
#define GSB_BIO_SORT_KEY_H

/// \file sort_key.h
/// Order-preserving integer keys of doubles, for the rank transforms
/// (quantile_normalize, midranks): sorting keys sorts the values without
/// reading them through an index.

#include <bit>
#include <cstdint>

namespace gsb::bio {

/// Order-preserving key of a value: keys compare as unsigned integers the
/// way the values compare under <, and -0.0 takes +0.0's key, since the
/// two compare equal.  (NaN has no place in that order.)
inline std::uint64_t sort_key(double value) noexcept {
  if (value == 0.0) value = 0.0;
  const auto bits = std::bit_cast<std::uint64_t>(value);
  return bits >> 63 != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

/// The value behind a sort key (+0.0 for either zero).
inline double key_value(std::uint64_t key) noexcept {
  return std::bit_cast<double>(key >> 63 != 0 ? key & ~(std::uint64_t{1} << 63)
                                              : ~key);
}

/// A value's sort key and its position.
struct KeyedIndex {
  std::uint64_t key;
  std::uint32_t index;
};

}  // namespace gsb::bio

#endif  // GSB_BIO_SORT_KEY_H
