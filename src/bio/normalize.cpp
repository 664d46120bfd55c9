#include "bio/normalize.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

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

void quantile_normalize(ExpressionMatrix& matrix) {
  const std::size_t genes = matrix.genes();
  const std::size_t samples = matrix.samples();
  if (genes == 0 || samples == 0) return;

  // Rank the genes within each sample.  Each column is sorted as a
  // contiguous (value, gene) copy; the comparator reads only the value,
  // so std::sort makes the same moves as on a gene-index array compared
  // through strided matrix reads.  The reference distribution (the mean
  // across samples at each rank) accumulates from the sorted copy.
  struct Entry {
    double value;
    std::uint32_t gene;
  };
  std::vector<Entry> column(genes);
  std::vector<std::uint32_t> order(samples * genes);
  std::vector<double> reference(genes, 0.0);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t g = 0; g < genes; ++g) {
      column[g] = Entry{matrix.at(g, s), static_cast<std::uint32_t>(g)};
    }
    std::sort(column.begin(), column.end(),
              [](const Entry& a, const Entry& b) { return a.value < b.value; });
    std::uint32_t* ranked = order.data() + s * genes;
    for (std::size_t r = 0; r < genes; ++r) {
      reference[r] += column[r].value;
      ranked[r] = column[r].gene;
    }
  }
  for (double& v : reference) v /= static_cast<double>(samples);
  // Substitute each value by the reference value of its rank; a tie group
  // gets the mean of its ranks' reference values.
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint32_t* ranked = order.data() + s * genes;
    std::size_t r = 0;
    while (r < genes) {
      const double value = matrix.at(ranked[r], s);
      std::size_t end = r + 1;
      while (end < genes && matrix.at(ranked[end], s) == value) ++end;
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
