#ifndef GSB_BIO_NORMALIZE_H
#define GSB_BIO_NORMALIZE_H

/// \file normalize.h
/// Expression normalization — the first stage of the paper's pipeline
/// ("raw microarray data after normalization ...").

#include "bio/expression.h"

namespace gsb::bio {

/// Standardizes each gene's profile to mean 0 / sample stddev 1 in place.
/// Constant rows become all zeros.
void zscore_rows(ExpressionMatrix& matrix);

/// Quantile normalization across samples (columns): forces every sample to
/// share one empirical distribution (the cross-array calibration used for
/// Affymetrix data).  The reference distribution is the mean across
/// samples of each rank's value; a value takes the reference value of its
/// rank, and the values of a tie group within a column all take the mean
/// of the group's reference values, so the result does not depend on how
/// the sort orders equal values.
void quantile_normalize(ExpressionMatrix& matrix);

/// log2(x - min + 1) transform per matrix (variance stabilization).
void log2_transform(ExpressionMatrix& matrix);

}  // namespace gsb::bio

#endif  // GSB_BIO_NORMALIZE_H
