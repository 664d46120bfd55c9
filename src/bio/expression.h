#ifndef GSB_BIO_EXPRESSION_H
#define GSB_BIO_EXPRESSION_H

/// \file expression.h
/// Gene-expression matrix: genes (probe sets) by samples (arrays), the raw
/// material of the paper's pipeline — the evaluation graphs come from
/// "raw microarray data after normalization, pairwise rank coefficient
/// calculation, and filtering using threshold".

#include <span>
#include <string>
#include <vector>

#include "util/page_allocator.h"

namespace gsb::bio {

/// Dense row-major genes x samples matrix with optional gene names.
class ExpressionMatrix {
 public:
  ExpressionMatrix() = default;

  /// Zero-filled matrix, on its own pages (util::PageArray).
  ExpressionMatrix(std::size_t genes, std::size_t samples)
      : genes_(genes), samples_(samples), values_(genes * samples) {}

  [[nodiscard]] std::size_t genes() const noexcept { return genes_; }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }

  [[nodiscard]] double at(std::size_t gene, std::size_t sample) const noexcept {
    return values_[gene * samples_ + sample];
  }
  double& at(std::size_t gene, std::size_t sample) noexcept {
    return values_[gene * samples_ + sample];
  }

  /// A gene's expression profile across samples.
  [[nodiscard]] std::span<const double> row(std::size_t gene) const noexcept {
    return {values_.data() + gene * samples_, samples_};
  }
  [[nodiscard]] std::span<double> row(std::size_t gene) noexcept {
    return {values_.data() + gene * samples_, samples_};
  }

  /// Gene names; empty when unnamed.  When set, must have genes() entries.
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }
  void set_names(std::vector<std::string> names) { names_ = std::move(names); }

  /// Name of a gene ("gene<idx>" when unnamed).
  [[nodiscard]] std::string name_of(std::size_t gene) const;

 private:
  std::size_t genes_ = 0;
  std::size_t samples_ = 0;
  util::PageArray<double> values_;
  std::vector<std::string> names_;
};

}  // namespace gsb::bio

#endif  // GSB_BIO_EXPRESSION_H
