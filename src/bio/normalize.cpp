#include "bio/normalize.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "bio/sort_key.h"
#include "obs/timeline.h"
#include "util/page_allocator.h"

namespace gsb::bio {

void zscore_rows(ExpressionMatrix& matrix) {
  const std::size_t s = matrix.samples();
  if (s < 2) return;
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    auto row = matrix.row(g);
    const double mean =
        std::accumulate(row.begin(), row.end(), 0.0) / static_cast<double>(s);
    double ss = 0.0;
    for (double v : row) ss += (v - mean) * (v - mean);
    const double sd = std::sqrt(ss / static_cast<double>(s - 1));
    if (sd == 0.0) {
      std::fill(row.begin(), row.end(), 0.0);
      continue;
    }
    for (double& v : row) v = (v - mean) / sd;
  }
}

namespace {

/// Stable LSD radix sort of \p items by key in 11-bit digits, with \p spare
/// (the same size) as the second buffer.  A digit every key shares is
/// skipped.
void radix_sort(std::vector<KeyedIndex>& items,
                std::vector<KeyedIndex>& spare) {
  constexpr unsigned kBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  constexpr unsigned kPasses = (64 + kBits - 1) / kBits;
  const std::size_t n = items.size();
  std::array<std::array<std::uint32_t, kBuckets>, kPasses> counts{};
  for (const KeyedIndex& item : items) {
    for (unsigned p = 0; p < kPasses; ++p) {
      ++counts[p][(item.key >> (p * kBits)) & (kBuckets - 1)];
    }
  }
  for (unsigned p = 0; p < kPasses; ++p) {
    const unsigned shift = p * kBits;
    auto& offset = counts[p];
    if (offset[(items[0].key >> shift) & (kBuckets - 1)] == n) continue;
    std::uint32_t sum = 0;
    for (auto& count : offset) sum += std::exchange(count, sum);
    for (const KeyedIndex& item : items) {
      spare[offset[(item.key >> shift) & (kBuckets - 1)]++] = item;
    }
    items.swap(spare);
  }
}

}  // namespace

void quantile_normalize(ExpressionMatrix& matrix) {
  obs::TimelineSpan span(obs::TimelineEventKind::kStage, "normalize");
  const std::size_t genes = matrix.genes();
  const std::size_t samples = matrix.samples();
  if (genes == 0 || samples == 0) return;

  // Rank the genes within each sample: each column is radix-sorted as
  // (key, gene) pairs.  The sorted keys give the reference distribution
  // (the mean across samples at each rank) and mark where a run of equal
  // values continues, so the second pass reads neither the matrix nor a
  // comparison.
  std::vector<KeyedIndex> column(genes);
  std::vector<KeyedIndex> spare(genes);
  // The rank table and tie bits scale with the matrix, so they take their
  // own pages, as the matrix does.
  util::PageArray<std::uint32_t> order(samples * genes);
  // Bit s * genes + r: rank r of sample s holds the value of rank r - 1.
  util::PageArray<std::uint64_t> tied((samples * genes + 63) / 64);
  std::vector<double> reference(genes, 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t g = 0; g < genes; ++g) {
      column[g] = KeyedIndex{sort_key(matrix.at(g, s)),
                             static_cast<std::uint32_t>(g)};
    }
    radix_sort(column, spare);
    std::uint32_t* ranked = order.data() + s * genes;
    for (std::size_t r = 0; r < genes; ++r) {
      reference[r] += key_value(column[r].key);
      ranked[r] = column[r].index;
      if (r > 0 && column[r].key == column[r - 1].key) {
        const std::size_t bit = s * genes + r;
        tied[bit / 64] |= std::uint64_t{1} << (bit % 64);
      }
    }
  }
  for (double& v : reference) v /= static_cast<double>(samples);
  // Substitute each value by the reference value of its rank; a tie group
  // gets the mean of its ranks' reference values.
  auto ties_previous = [&](std::size_t bit) {
    return (tied[bit / 64] >> (bit % 64) & 1) != 0;
  };
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint32_t* ranked = order.data() + s * genes;
    std::size_t r = 0;
    while (r < genes) {
      std::size_t end = r + 1;
      while (end < genes && ties_previous(s * genes + end)) ++end;
      double quantile = reference[r];
      if (end - r > 1) {
        double sum = 0.0;
        for (std::size_t t = r; t < end; ++t) sum += reference[t];
        quantile = sum / static_cast<double>(end - r);
      }
      for (; r < end; ++r) matrix.at(ranked[r], s) = quantile;
    }
  }
}

void log2_transform(ExpressionMatrix& matrix) {
  double min_value = 0.0;
  bool first = true;
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    for (double v : matrix.row(g)) {
      if (first || v < min_value) {
        min_value = v;
        first = false;
      }
    }
  }
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    for (double& v : matrix.row(g)) {
      v = std::log2(v - min_value + 1.0);
    }
  }
}

}  // namespace gsb::bio
