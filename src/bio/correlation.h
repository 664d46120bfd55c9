#ifndef GSB_BIO_CORRELATION_H
#define GSB_BIO_CORRELATION_H

/// \file correlation.h
/// Pairwise gene correlation and thresholded graph construction — stages
/// two and three of the paper's pipeline ("pairwise rank coefficient
/// calculation, and filtering using threshold").  The in-memory builder
/// here and the out-of-core one (bio/tiled_correlation.h) run one
/// standardize pass and one sweep: build_correlation_graph runs the
/// out-of-core builder's passes 1 and 2 on its rows as one resident tile
/// (standardize_rows, sweep_resident).

#include <cstdint>
#include <vector>

#include "bio/expression.h"
#include "bio/sort_key.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace gsb::bio {

enum class CorrelationMethod {
  kPearson,
  kSpearman  ///< rank coefficient — the paper's choice
};

/// Pearson correlation of two equal-length profiles (0 if either is
/// constant).
double pearson(std::span<const double> x, std::span<const double> y);

/// Spearman rank correlation (tie-averaged ranks, then Pearson).
double spearman(std::span<const double> x, std::span<const double> y);

/// Tie-averaged ranks of a profile (1-based averages, standard midranks).
std::vector<double> midranks(std::span<const double> values);

/// Reusable scratch for standardized_profile_into: the Spearman path needs
/// the values' sort keys and a rank buffer per call, and reusing them
/// across a genes-long standardization pass removes the per-row allocation
/// churn.
struct StandardizeScratch {
  std::vector<double> ranks;
  std::vector<KeyedIndex> keys;
};

/// midranks, but writing into scratch.ranks and sorting (key, index) pairs
/// in scratch.keys (bio/sort_key.h) — no indirect comparisons, and no
/// allocations after the first call.
void midranks_into(std::span<const double> values,
                   StandardizeScratch& scratch);

/// Standardizes a profile for dot-product correlation under \p method
/// (rank-transforms first for Spearman): mean 0, unit norm, written
/// directly into \p out (profile.size() doubles; it may be
/// profile.data(): pass 1 standardizes each row in place in its tile
/// slot).  Returns false for constant profiles, leaving out all-zero.
/// Both builders go through this one function in one pass, which is what
/// makes their edge sets bit-identical.
bool standardized_profile_into(std::span<const double> profile,
                               CorrelationMethod method, double* out,
                               StandardizeScratch& scratch);

/// Plain sequential dot product — the correlation inner loop.  Kept as a
/// named function so every builder accumulates in the same order (floating
/// point addition is not associative; a different order could flip edges
/// sitting exactly on the threshold).
double profile_dot(const double* a, const double* b, std::size_t n) noexcept;

/// Options for thresholded graph construction.
struct CorrelationGraphOptions {
  CorrelationMethod method = CorrelationMethod::kSpearman;
  /// Edge iff |corr| >= threshold (used when target_edges == 0).
  double threshold = 0.85;
  /// When nonzero, pick the threshold as the |corr| quantile that yields
  /// approximately this many edges (estimated from <= 200,000 pair draws).
  std::size_t target_edges = 0;
  /// Worker threads for the blocked correlation sweep: 0 = hardware
  /// concurrency, 1 = sequential.  The edge set is identical at every
  /// thread count (see corr_kernel.h's determinism contract).
  std::size_t threads = 1;
  /// Rows per cache block in the sweep; 0 = kernel default.
  std::size_t corr_block = 0;
};

/// Result of graph construction.
struct CorrelationGraphResult {
  graph::Graph graph;
  double threshold_used = 0.0;
};

/// Builds the thresholded co-expression graph without materializing the
/// full correlation matrix.
CorrelationGraphResult build_correlation_graph(
    const ExpressionMatrix& expression,
    const CorrelationGraphOptions& options, util::Rng& rng);

}  // namespace gsb::bio

#endif  // GSB_BIO_CORRELATION_H
