// Tests for DynamicBitset: single-bit ops, whole-set algebra, the fused
// kernels the enumerator depends on, randomized equivalence against a
// std::vector<bool> reference model, and the inline bits::popcount.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "bitset/bitset_view.h"
#include "bitset/dynamic_bitset.h"
#include "util/rng.h"

namespace gsb::bits {
namespace {

TEST(Bitset, PopcountMatchesBitLoop) {
  auto loop = [](std::uint64_t word) {
    std::size_t bits = 0;
    for (int b = 0; b < 64; ++b) bits += (word >> b) & 1;
    return bits;
  };
  std::vector<std::uint64_t> words = {0, ~std::uint64_t{0},
                                      0x5555555555555555ULL,
                                      0x8000000000000001ULL};
  for (int b = 0; b < 64; ++b) {
    words.push_back(std::uint64_t{1} << b);
    words.push_back(~(std::uint64_t{1} << b));
  }
  util::Rng rng(64);
  for (int i = 0; i < 1000; ++i) {
    // Random words at every density: each bit set with chance d/8.
    const auto d = rng.below(9);
    std::uint64_t word = 0;
    for (int b = 0; b < 64; ++b) {
      if (rng.below(8) < d) word |= std::uint64_t{1} << b;
    }
    words.push_back(word);
  }
  for (const std::uint64_t word : words) {
    EXPECT_EQ(bits::popcount(word), loop(word)) << std::hex << word;
  }
}

TEST(DynamicBitset, StartsClear) {
  DynamicBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_TRUE(bits.none());
  EXPECT_FALSE(bits.any());
}

TEST(DynamicBitset, SetResetTestFlip) {
  DynamicBitset bits(100);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(99);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(99));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 4u);
  bits.reset(63);
  EXPECT_FALSE(bits.test(63));
  bits.flip(63);
  EXPECT_TRUE(bits.test(63));
  bits.flip(63);
  EXPECT_FALSE(bits.test(63));
}

TEST(DynamicBitset, SetAllRespectsSize) {
  DynamicBitset bits(70);
  bits.set_all();
  EXPECT_EQ(bits.count(), 70u);
  bits.flip_all();
  EXPECT_EQ(bits.count(), 0u);
}

TEST(DynamicBitset, FlipAllOnPartialWord) {
  DynamicBitset bits(65);
  bits.set(0);
  bits.flip_all();
  EXPECT_EQ(bits.count(), 64u);
  EXPECT_FALSE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
}

TEST(DynamicBitset, FindFirstAndNext) {
  DynamicBitset bits(200);
  EXPECT_EQ(bits.find_first(), 200u);
  bits.set(5);
  bits.set(64);
  bits.set(199);
  EXPECT_EQ(bits.find_first(), 5u);
  EXPECT_EQ(bits.find_next(5), 64u);
  EXPECT_EQ(bits.find_next(64), 199u);
  EXPECT_EQ(bits.find_next(199), 200u);
  EXPECT_EQ(bits.find_next(0), 5u);
}

TEST(DynamicBitset, FindNextAtBoundary) {
  DynamicBitset bits(64);
  bits.set(63);
  EXPECT_EQ(bits.find_next(62), 63u);
  EXPECT_EQ(bits.find_next(63), 64u);
}

TEST(DynamicBitset, ForEachVisitsAscending) {
  DynamicBitset bits(300);
  const std::vector<std::uint32_t> expect{0, 1, 63, 64, 128, 255, 299};
  for (auto v : expect) bits.set(v);
  std::vector<std::uint32_t> seen;
  bits.for_each([&](std::size_t v) {
    seen.push_back(static_cast<std::uint32_t>(v));
  });
  EXPECT_EQ(seen, expect);
  EXPECT_EQ(bits.to_vector(), expect);
}

TEST(DynamicBitset, ResizePreservesAndClears) {
  DynamicBitset bits(10);
  bits.set(3);
  bits.set(9);
  bits.resize(100);
  EXPECT_TRUE(bits.test(3));
  EXPECT_TRUE(bits.test(9));
  EXPECT_EQ(bits.count(), 2u);
  bits.resize(4);
  EXPECT_EQ(bits.count(), 1u);  // bit 9 dropped
  EXPECT_TRUE(bits.test(3));
}

TEST(DynamicBitset, AndOrXorAndNot) {
  DynamicBitset a(130);
  DynamicBitset b(130);
  a.set(1);
  a.set(100);
  a.set(129);
  b.set(100);
  b.set(2);

  DynamicBitset and_result = a;
  and_result &= b;
  EXPECT_EQ(and_result.to_vector(), (std::vector<std::uint32_t>{100}));

  DynamicBitset or_result = a;
  or_result |= b;
  EXPECT_EQ(or_result.to_vector(),
            (std::vector<std::uint32_t>{1, 2, 100, 129}));

  DynamicBitset xor_result = a;
  xor_result ^= b;
  EXPECT_EQ(xor_result.to_vector(), (std::vector<std::uint32_t>{1, 2, 129}));

  DynamicBitset diff = a;
  diff.and_not(b);
  EXPECT_EQ(diff.to_vector(), (std::vector<std::uint32_t>{1, 129}));
}

TEST(DynamicBitset, AssignAndMatchesOperator) {
  util::Rng rng(5);
  DynamicBitset a(500);
  DynamicBitset b(500);
  for (int i = 0; i < 200; ++i) {
    a.set(rng.below(500));
    b.set(rng.below(500));
  }
  DynamicBitset expect = a;
  expect &= b;
  DynamicBitset fused(500);
  fused.assign_and(a, b);
  EXPECT_EQ(fused, expect);
  // Aliasing: out aliases an operand.
  DynamicBitset alias = a;
  alias.assign_and(alias, b);
  EXPECT_EQ(alias, expect);
}

TEST(DynamicBitset, IntersectsEarlyExitSemantics) {
  DynamicBitset a(256);
  DynamicBitset b(256);
  EXPECT_FALSE(DynamicBitset::intersects(a, b));
  a.set(200);
  EXPECT_FALSE(DynamicBitset::intersects(a, b));
  b.set(200);
  EXPECT_TRUE(DynamicBitset::intersects(a, b));
  b.reset(200);
  b.set(199);
  EXPECT_FALSE(DynamicBitset::intersects(a, b));
}

TEST(DynamicBitset, CountAnd) {
  DynamicBitset a(100);
  DynamicBitset b(100);
  for (std::size_t i = 0; i < 100; i += 2) a.set(i);
  for (std::size_t i = 0; i < 100; i += 3) b.set(i);
  // multiples of 6 below 100: 0,6,...,96 -> 17 values
  EXPECT_EQ(DynamicBitset::count_and(a, b), 17u);
}

TEST(DynamicBitset, SubsetRelation) {
  DynamicBitset small(90);
  DynamicBitset big(90);
  small.set(10);
  small.set(70);
  big.set(10);
  big.set(70);
  big.set(80);
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  EXPECT_TRUE(small.is_subset_of(small));
}

TEST(DynamicBitset, ToStringRendersPositions) {
  DynamicBitset bits(5);
  bits.set(1);
  bits.set(4);
  EXPECT_EQ(bits.to_string(), "01001");
}

TEST(DynamicBitset, EqualityIncludesSize) {
  DynamicBitset a(10);
  DynamicBitset b(11);
  EXPECT_FALSE(a == b);
  DynamicBitset c(10);
  EXPECT_TRUE(a == c);
  c.set(3);
  EXPECT_FALSE(a == c);
}

/// Randomized equivalence against std::vector<bool>: applies a mixed op
/// sequence and compares the full state.
class BitsetModelTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(BitsetModelTest, MatchesReferenceModel) {
  const auto [nbits, seed] = GetParam();
  util::Rng rng(seed);
  DynamicBitset bits(nbits);
  std::vector<bool> model(nbits, false);
  for (int step = 0; step < 2000; ++step) {
    const std::size_t pos = nbits == 0 ? 0 : rng.below(nbits);
    switch (rng.below(4)) {
      case 0:
        bits.set(pos);
        model[pos] = true;
        break;
      case 1:
        bits.reset(pos);
        model[pos] = false;
        break;
      case 2:
        bits.flip(pos);
        model[pos] = !model[pos];
        break;
      default:
        ASSERT_EQ(bits.test(pos), model[pos]);
    }
  }
  std::size_t expected_count = 0;
  for (std::size_t i = 0; i < nbits; ++i) {
    ASSERT_EQ(bits.test(i), model[i]) << "position " << i;
    expected_count += model[i];
  }
  EXPECT_EQ(bits.count(), expected_count);
  // find_next chain visits exactly the set positions.
  std::vector<std::size_t> chain;
  for (std::size_t v = bits.find_first(); v < nbits; v = bits.find_next(v)) {
    chain.push_back(v);
  }
  std::vector<std::size_t> expect;
  for (std::size_t i = 0; i < nbits; ++i) {
    if (model[i]) expect.push_back(i);
  }
  EXPECT_EQ(chain, expect);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BitsetModelTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 63, 64, 65, 127, 128,
                                                      500, 1031),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

}  // namespace
}  // namespace gsb::bits

namespace gsb::bits {
namespace {

TEST(DynamicBitset, CountFrom) {
  DynamicBitset bits(200);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(130);
  bits.set(199);
  EXPECT_EQ(bits.count_from(0), 5u);
  EXPECT_EQ(bits.count_from(1), 4u);
  EXPECT_EQ(bits.count_from(63), 4u);
  EXPECT_EQ(bits.count_from(64), 3u);
  EXPECT_EQ(bits.count_from(65), 2u);
  EXPECT_EQ(bits.count_from(199), 1u);
  EXPECT_EQ(bits.count_from(200), 0u);
  EXPECT_EQ(bits.count_from(500), 0u);
}

TEST(DynamicBitset, CountFromMatchesManualScan) {
  util::Rng rng(99);
  DynamicBitset bits(513);
  for (int i = 0; i < 200; ++i) bits.set(rng.below(513));
  for (std::size_t pos : {0u, 1u, 63u, 64u, 65u, 511u, 512u}) {
    std::size_t manual = 0;
    for (std::size_t i = pos; i < bits.size(); ++i) manual += bits.test(i);
    EXPECT_EQ(bits.count_from(pos), manual) << "pos=" << pos;
  }
}

}  // namespace
}  // namespace gsb::bits
