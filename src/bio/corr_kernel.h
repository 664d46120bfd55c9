#ifndef GSB_BIO_CORR_KERNEL_H
#define GSB_BIO_CORR_KERNEL_H

/// \file corr_kernel.h
/// The shared high-performance correlation kernel.
///
/// Both correlation builders — the in-memory one (bio/correlation.h) and
/// the tiled out-of-core one (bio/tiled_correlation.h) — spend their time
/// in the same place: all-pairs dot products of standardized expression
/// profiles, an O(genes² × samples) GEMM-shaped workload.  This header
/// provides the one kernel they both call:
///
///   * AlignedRows — standardized profiles stored row-major with each row
///     start 64-byte aligned and the row length padded to a multiple of
///     eight doubles (one cache line).  Padding is zero-filled so kernels
///     may read a full stride without changing any dot product.
///   * correlation_block — a cache-blocked, register-tiled dense block
///     product in double precision: packs the B rows into a transposed
///     (sample-major) panel so the inner loop is SIMD-friendly (contiguous
///     loads, one broadcast), and keeps eight independent accumulator
///     chains per A row.  Every entry is bit-identical to profile_dot().
///   * BlockPairScan — the block-pair body: thresholds the pairs of two
///     row blocks through a single-precision screen and appends the hits.
///     Every sweep runs it: correlation_cross below, and the tiled
///     builder's block jobs (bio/tiled_correlation.h).
///   * correlation_cross / correlation_self — block-pair sweeps over
///     in-RAM rows that dispatch BlockPairScan over a par::ThreadPool and
///     emit edges through a reorder buffer.
///
/// The screen: a sweep keeps a float copy of each block of rows (a
/// ScreenPanel) and, per block pair, runs a register-tiled float FMA micro
/// kernel (AVX2+FMA when the CPU has it, a 128-bit vector body otherwise).  A
/// register tile whose every |approx| lies below threshold − margin is
/// dropped in registers; margin (detail::screen_margin) is a proved bound
/// on |approx − profile_dot|, so no dropped pair can be an edge.  Every
/// surviving valid pair is recomputed with profile_dot() outside the
/// FMA-targeted code and emitted iff that double value passes.  A block
/// whose screen passes more than a fixed share of its pairs (dense
/// thresholds), or whose margin leaves no room below the threshold, is
/// computed exactly with correlation_block instead.
///
/// Determinism contract: every *emitted* correlation is profile_dot()'s
/// value — from the recheck, or from correlation_block, which accumulates
/// a[k] * b[k] in ascending k with one accumulator lane per pair (the
/// scalar reference order; vectorization runs across pairs, never within
/// one, and uses no FMA).  So the edge decision |corr| >= threshold is
/// made on the same double in every path and at every ISA.  Screen values
/// are not exact and are never emitted.  The sweep drivers emit edges in a
/// fixed (block pair, i, j) order regardless of thread count or
/// scheduling, so edge sets — and anything built from them, including
/// .gsbg containers — are byte-identical across thread counts.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "bio/correlation.h"
#include "bio/expression.h"
#include "parallel/thread_pool.h"

namespace gsb::bio {

/// Default rows per cache block for the sweep drivers.  Two 128-row blocks
/// of 64–512 samples (128 KiB – 1 MiB of doubles) sit comfortably in L2
/// while each packed panel is reused across the whole opposing block.
inline constexpr std::size_t kDefaultCorrBlock = 128;

/// Row-major matrix of profiles with 64-byte-aligned, zero-padded rows —
/// the SoA layout the blocked kernel consumes.  stride() is samples()
/// rounded up to a whole cache line of doubles; the pad lanes are zero and
/// must stay zero (kernels may load them).
class AlignedRows {
 public:
  static constexpr std::size_t kAlignment = 64;  // bytes
  static constexpr std::size_t kAlignDoubles = kAlignment / sizeof(double);

  AlignedRows() = default;
  AlignedRows(std::size_t rows, std::size_t samples)
      : rows_(rows),
        samples_(samples),
        stride_((samples + kAlignDoubles - 1) / kAlignDoubles * kAlignDoubles) {
    const std::size_t total = rows_ * stride_ * sizeof(double);
    if (total == 0) return;
    data_.reset(static_cast<double*>(std::aligned_alloc(kAlignment, total)));
    if (data_ == nullptr) throw std::bad_alloc();
    std::fill_n(data_.get(), rows_ * stride_, 0.0);
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  /// Doubles between consecutive row starts (>= samples, multiple of 8).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  /// Bytes owned by the backing allocation.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return rows_ * stride_ * sizeof(double);
  }

  [[nodiscard]] double* row(std::size_t r) noexcept {
    return data_.get() + r * stride_;
  }
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return data_.get() + r * stride_;
  }

 private:
  struct FreeDeleter {
    void operator()(double* p) const noexcept { std::free(p); }
  };

  std::size_t rows_ = 0;
  std::size_t samples_ = 0;
  std::size_t stride_ = 0;
  std::unique_ptr<double[], FreeDeleter> data_;
};

/// Standardized profiles plus per-row validity (false marks constant rows,
/// whose standardized profile is all-zero).
struct StandardizedRows {
  AlignedRows rows;
  std::vector<unsigned char> valid;
};

/// Standardizes every row of \p expression under \p method straight into
/// an aligned, padded row block (no per-row staging buffer; Spearman rank
/// scratch is reused across rows).
StandardizedRows standardize_rows(const ExpressionMatrix& expression,
                                  CorrelationMethod method);

/// Dense block product: out[i * out_stride + j] = dot(a_i, b_j) over
/// \p samples entries, for i < a_count, j < b_count.  Rows are read at
/// \p a_stride / \p b_stride doubles apart (use AlignedRows::stride()).
/// \p scratch holds the packed transposed B panel and is reused across
/// calls.  out must not alias the inputs.  Every out entry is bit-identical
/// to profile_dot(a_i, b_j, samples).
void correlation_block(const double* a_rows, std::size_t a_count,
                       const double* b_rows, std::size_t b_count,
                       std::size_t samples, std::size_t a_stride,
                       std::size_t b_stride, double* out,
                       std::size_t out_stride, std::vector<double>& scratch);

namespace detail {
enum class ScreenKernel;
/// A screen micro-kernel over one block pair of panels (see BlockPairScan).
using ScreenFn = bool (*)(const float* a_panel, std::size_t a_count,
                          const float* b_panel, std::size_t b_count,
                          bool upper, std::size_t samples, float cut,
                          std::size_t limit,
                          std::vector<std::uint64_t>& candidates);
}  // namespace detail

/// One thresholded pair: global ids (u, v) and the correlation.
struct CorrHit {
  std::uint32_t u;
  std::uint32_t v;
  double corr;
};

/// Float copy of one block of rows for the screen: a run of 16-row tiles,
/// each sample-major and contiguous (element (k, c) of tile t at
/// (t * samples + k) * 16 + c, pad rows zero), so one copy serves the
/// block as the A side (broadcasts) and as the B side (vector loads), and
/// a register tile streams through memory in order.
class ScreenPanel {
 public:
  ScreenPanel() = default;
  /// Room for up to \p rows rows of \p samples.
  ScreenPanel(std::size_t rows, std::size_t samples);

  /// Converts \p count (at most the panel's rows) rows starting at \p rows,
  /// \p stride doubles apart, and takes the largest norm bound over the
  /// rows \p valid marks (block-local; nullptr = all valid).
  void fill(const double* rows, std::size_t stride, std::size_t count,
            const unsigned char* valid) noexcept;

  [[nodiscard]] const float* data() const noexcept { return data_.get(); }
  /// Largest norm bound over the valid rows of the last fill (0 if none).
  [[nodiscard]] double max_norm() const noexcept { return max_norm_; }
  /// Bytes owned by the panel.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return floats_ * sizeof(float);
  }

 private:
  struct FreeDeleter {
    void operator()(float* p) const noexcept { std::free(p); }
  };

  std::size_t samples_ = 0;
  std::size_t floats_ = 0;
  double max_norm_ = 0.0;
  std::unique_ptr<float[], FreeDeleter> data_;
};

/// One block of rows as the block-pair body reads it.
struct CorrBlock {
  const double* rows = nullptr;  ///< row 0; row r at rows + r * stride
  std::size_t stride = 0;        ///< doubles between row starts
  std::size_t count = 0;         ///< rows in the block
  const unsigned char* valid = nullptr;  ///< block-local; nullptr = all valid
  std::uint32_t first = 0;               ///< global id of row 0
  /// The block's filled float copy; read only when the scan screens.
  const ScreenPanel* panel = nullptr;
};

/// Per-worker scratch for BlockPairScan::scan, reused across calls.
struct CorrScanScratch {
  std::vector<double> dense;
  std::vector<double> pack;
  std::vector<std::uint64_t> candidates;
};

/// The block-pair screen/recheck body of every sweep.  A scan screens the
/// pair's panels in float, rechecks each surviving valid pair with
/// profile_dot and keeps it iff |corr| >= threshold; a block whose screen
/// passes too many pairs, or whose margin leaves no room below the
/// threshold, is computed exactly with correlation_block instead.
class BlockPairScan {
 public:
  /// Scans rows of \p samples at \p threshold with the widest screen this
  /// build and CPU run.  Each scan object counts as one sweep
  /// (gsb_correlation_sweeps_total).
  BlockPairScan(std::size_t samples, double threshold);
  /// The same with the screen fixed to \p kernel; throws
  /// std::invalid_argument when this build or CPU cannot run it.
  BlockPairScan(std::size_t samples, double threshold,
                detail::ScreenKernel kernel);

  /// False when every block is computed exactly (no screen kernel, or a
  /// threshold that leaves no room below it): then no block needs a panel.
  [[nodiscard]] bool screens() const noexcept { return screen_ != nullptr; }

  /// Appends to \p hits, in ascending (i, j) order, every pair of row i of
  /// \p a and row j of \p b with both rows valid and |corr| >= threshold;
  /// \p diagonal marks a and b as the same block (then only j > i).  Every
  /// hit's corr is bit-identical to profile_dot() of the two rows.
  void scan(const CorrBlock& a, const CorrBlock& b, bool diagonal,
            CorrScanScratch& scratch, std::vector<CorrHit>& hits) const;

 private:
  detail::ScreenFn screen_ = nullptr;
  std::size_t samples_ = 0;
  double threshold_ = 0.0;
};

/// Options for the block-pair sweep drivers.
struct CorrSweepOptions {
  /// Rows per cache block; 0 = kDefaultCorrBlock.
  std::size_t block = 0;
  /// Worker pool for block-level parallelism; nullptr (or a 1-thread pool)
  /// runs sequentially.  The produced edge sequence is identical either
  /// way.
  par::ThreadPool* pool = nullptr;
};

/// Receives one thresholded pair: global ids (u, v) and the correlation.
using CorrEdgeSink =
    std::function<void(std::uint32_t, std::uint32_t, double)>;

/// Sweeps all (i, j) pairs between row block A (global ids a_first + i)
/// and row block B (global ids b_first + j), emitting every pair with both
/// rows valid and |corr| >= threshold.  \p diagonal marks A and B as the
/// *same* row range (then only pairs with global i < j are emitted and
/// only upper-triangle block pairs are visited).  Validity pointers may be
/// null (all rows valid); they index block-local rows.  The sink is called
/// from one thread at a time, in ascending (block pair, i, j) order,
/// independent of thread count.  Every emitted correlation is
/// bit-identical to profile_dot() of the two rows (see the file comment).
void correlation_cross(const AlignedRows& a, std::size_t a_count,
                       const unsigned char* a_valid, std::uint32_t a_first,
                       const AlignedRows& b, std::size_t b_count,
                       const unsigned char* b_valid, std::uint32_t b_first,
                       bool diagonal, double threshold,
                       const CorrSweepOptions& options,
                       const CorrEdgeSink& sink);

/// All-pairs upper-triangle sweep of one row block (the in-memory
/// builder's shape): correlation_cross of the block with itself.
void correlation_self(const AlignedRows& rows, std::size_t count,
                      const unsigned char* valid, double threshold,
                      const CorrSweepOptions& options,
                      const CorrEdgeSink& sink);

namespace detail {

/// Upper bound on |screen − profile_dot(x, y, samples)| for rows x, y of
/// Euclidean norm at most \p norm_x and \p norm_y, where the screen value
/// is the dot product of the float-rounded rows summed in single precision
/// in any order, with or without FMA.  With n = samples, u = 2^-24 and
/// u_d = 2^-53 (unit roundoffs), γ(m) = m·u / (1 − m·u), γ_d likewise
/// with u_d, S = Σ|x_k·y_k| <= ‖x‖‖y‖ and Σ|x_k| <= √n·‖x‖:
///
///   * input rounding: x̂_k = x_k(1 + δ_k) + η_k with |δ_k| <= u and
///     |η_k| <= 2^-150 (float underflow), so
///     |Σx̂ŷ − Σxy| <= (2u + u²)·S + 2^-150·(1 + u)·(Σ|x| + Σ|y|)
///                     + n·2^-300 =: E_in;
///   * float sum: each of the n products and n additions rounds at most
///     once, relatively by u or absolutely by 2^-150 when subnormal, so
///     the screen differs from Σx̂ŷ by at most
///     γ(n + 1)·(S + E_in) + n·2^-149·(1 + γ(n + 1));
///   * the double reference itself: |profile_dot − Σxy| <=
///     γ_d(n + 1)·S + n·2^-1074·(1 + γ_d(n + 1)).
///
/// Summing, the bound is c1·‖x‖‖y‖ + c2·(‖x‖ + ‖y‖) + c3 with
/// c1 = 2u + u² + γ(n+1)(1 + u)² + γ_d(n+1),
/// c2 = 2^-150·(1 + u)(1 + γ(n+1))·√n and
/// c3 = n·(2^-300 + 2^-149)(1 + γ(n+1)) + n·2^-1074·(1 + γ_d(n+1)).
/// The returned value is that bound inflated by 2^-40 relatively to cover
/// its own rounding; it is +inf past 2^20 samples, where the screen is
/// not used.  For unit-norm rows of 96 samples it is about 5.9e-6.  A NaN
/// or infinite norm yields a non-finite margin, which screens nothing
/// out.
double screen_margin(std::size_t samples, double norm_x,
                     double norm_y) noexcept;

/// The screen's micro-kernel variants.  BlockPairScan runs the widest
/// one this build and CPU support.
enum class ScreenKernel {
  kVector128,  ///< 128-bit GNU-vector body (SSE2 / NEON), any GCC/Clang
  kAvx2Fma,    ///< 256-bit AVX2 + FMA, x86-64 CPUs that report both
};

/// True when this build and CPU can run \p kernel.
bool screen_kernel_available(ScreenKernel kernel) noexcept;

/// correlation_cross with the screen fixed to \p kernel (which must be
/// available): the entry point that lets tests run a variant the CPU
/// would not be given.  Emits exactly what correlation_cross emits.
void correlation_cross_with(ScreenKernel kernel, const AlignedRows& a,
                            std::size_t a_count, const unsigned char* a_valid,
                            std::uint32_t a_first, const AlignedRows& b,
                            std::size_t b_count, const unsigned char* b_valid,
                            std::uint32_t b_first, bool diagonal,
                            double threshold, const CorrSweepOptions& options,
                            const CorrEdgeSink& sink);

}  // namespace detail

}  // namespace gsb::bio

#endif  // GSB_BIO_CORR_KERNEL_H
