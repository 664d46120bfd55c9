#include "bio/correlation.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "bio/corr_kernel.h"
#include "bio/tiled_correlation.h"
#include "parallel/thread_pool.h"
#include "util/stats.h"

namespace gsb::bio {
namespace {

/// Standardizes \p n values to mean 0 / unit norm directly into \p out so
/// correlation reduces to a dot product.  Returns false for constant
/// profiles (out is zero-filled).  A constant is caught before the mean: a
/// mean fl(sum)/n that does not round back to the value would leave a
/// uniform residue, which would scale to a valid ±1/sqrt(n) row.
bool standardize_into(const double* in, std::size_t n, double* out) {
  if (std::all_of(in, in + n, [&](double v) { return v == in[0]; })) {
    std::fill(out, out + n, 0.0);
    return false;
  }
  const double mean =
      std::accumulate(in, in + n, 0.0) / static_cast<double>(n);
  double ss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = in[i] - mean;
    ss += out[i] * out[i];
  }
  if (ss == 0.0) {
    std::fill(out, out + n, 0.0);
    return false;
  }
  const double inv = 1.0 / std::sqrt(ss);
  for (std::size_t i = 0; i < n; ++i) out[i] *= inv;
  return true;
}

bool standardize(std::span<const double> in, std::vector<double>& out) {
  out.resize(in.size());
  return standardize_into(in.data(), in.size(), out.data());
}

}  // namespace

void midranks_into(std::span<const double> values,
                   StandardizeScratch& scratch) {
  const std::size_t n = values.size();
  scratch.keys.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.keys[i] =
        KeyedIndex{sort_key(values[i]), static_cast<std::uint32_t>(i)};
  }
  // Equal keys are equal values, so the order within a tie group does not
  // matter.
  std::sort(scratch.keys.begin(), scratch.keys.end(),
            [](const KeyedIndex& a, const KeyedIndex& b) {
              return a.key < b.key;
            });
  scratch.ranks.resize(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && scratch.keys[j].key == scratch.keys[i].key) ++j;
    // Average 1-based rank for the tie group [i, j).
    const double rank = (static_cast<double>(i) + static_cast<double>(j - 1)) /
                            2.0 +
                        1.0;
    for (std::size_t t = i; t < j; ++t) {
      scratch.ranks[scratch.keys[t].index] = rank;
    }
    i = j;
  }
}

std::vector<double> midranks(std::span<const double> values) {
  StandardizeScratch scratch;
  midranks_into(values, scratch);
  return std::move(scratch.ranks);
}

bool standardized_profile_into(std::span<const double> profile,
                               CorrelationMethod method, double* out,
                               StandardizeScratch& scratch) {
  if (method == CorrelationMethod::kSpearman) {
    midranks_into(profile, scratch);
    return standardize_into(scratch.ranks.data(), profile.size(), out);
  }
  return standardize_into(profile.data(), profile.size(), out);
}

double profile_dot(const double* a, const double* b, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += a[i] * b[i];
  return total;
}

double pearson(std::span<const double> x, std::span<const double> y) {
  std::vector<double> sx;
  std::vector<double> sy;
  if (x.size() != y.size() || x.empty()) return 0.0;
  if (!standardize(x, sx) || !standardize(y, sy)) return 0.0;
  return profile_dot(sx.data(), sy.data(), sx.size());
}

double spearman(std::span<const double> x, std::span<const double> y) {
  const std::vector<double> rx = midranks(x);
  const std::vector<double> ry = midranks(y);
  return pearson(rx, ry);
}

CorrelationGraphResult build_correlation_graph(
    const ExpressionMatrix& expression,
    const CorrelationGraphOptions& options, util::Rng& rng) {
  const std::size_t genes = expression.genes();
  CorrelationGraphResult result{graph::Graph(genes), options.threshold};
  if (genes < 2) return result;
  // One pool serves both passes.
  const std::size_t workers = options.threads == 0
                                  ? par::ThreadPool::default_threads()
                                  : options.threads;
  std::optional<par::ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  const StandardizedRows rows =
      standardize_rows(expression, options.method, pool ? &*pool : nullptr);
  const std::size_t samples = expression.samples();

  double threshold = options.threshold;
  if (options.target_edges > 0) {
    // Estimate the |corr| quantile matching the edge budget from sampled
    // pairs: P(edge) = target_edges / (n choose 2).
    const double total_pairs =
        static_cast<double>(genes) * static_cast<double>(genes - 1) / 2.0;
    const double fraction =
        std::min(1.0, static_cast<double>(options.target_edges) / total_pairs);
    std::vector<double> sample;
    constexpr std::size_t kQuantileSamples = 200000;
    const std::size_t draws = std::min<std::size_t>(
        kQuantileSamples, static_cast<std::size_t>(total_pairs));
    sample.reserve(draws);
    for (std::size_t d = 0; d < draws; ++d) {
      const auto i = static_cast<std::size_t>(rng.below(genes));
      const auto j = static_cast<std::size_t>(rng.below(genes));
      if (i == j) {
        --d;  // retry this draw
        continue;
      }
      if (rows.valid[i] == 0 || rows.valid[j] == 0) {
        sample.push_back(0.0);
        continue;
      }
      sample.push_back(
          std::fabs(profile_dot(rows.rows.row(i), rows.rows.row(j), samples)));
    }
    threshold = util::quantile(std::move(sample), 1.0 - fraction);
  }
  result.threshold_used = threshold;

  sweep_resident(rows.rows, rows.valid.data(), options.corr_block,
                 BlockPairScan(samples, threshold), pool ? &*pool : nullptr,
                 [&](const std::vector<CorrHit>& hits) {
                   for (const CorrHit& h : hits) {
                     result.graph.add_edge(static_cast<graph::VertexId>(h.u),
                                           static_cast<graph::VertexId>(h.v));
                   }
                 });
  return result;
}

}  // namespace gsb::bio
