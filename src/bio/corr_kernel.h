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
///     row blocks through an exact 8-bit integer screen and appends the
///     hits.  One sweep driver runs it, the tiled builder's block-pair job
///     graph (bio/tiled_correlation.h): over a scratch file of rows, or
///     over rows already in memory as one resident tile (sweep_resident,
///     which the in-memory builder calls).
///
/// The screen: a sweep keeps a quantized copy of each block of rows (a
/// ScreenPanel).  Each row x is stored as 8-bit codes q_k = round(x_k / s)
/// in [−90, 90] with one scale s per row.  Per block pair, a register-tiled
/// micro kernel computes D = Σ q_a·q_b exactly in int32 lanes — vpdpbusd
/// on AVX-VNNI or AVX512-VNNI+VL, vpmaddubsw + vpmaddwd on AVX2, a 128-bit
/// GNU-vector body elsewhere — and the screen value is fl(fl(D)·s_b)·s_a.
/// A register tile whose every screen value lies strictly inside
/// (−cut, cut), cut = threshold − margin, is dropped in registers; margin
/// (detail::screen_margin) is a proved bound on |screen − profile_dot|, so
/// no dropped pair can be an edge.  Integer sums are exact and the float
/// epilogue is the same operations on every body, so every kernel lists
/// the same candidates.  Every surviving valid pair is recomputed with
/// profile_dot() and emitted iff that double value passes.  A block is
/// computed exactly with correlation_block instead when its screen passes
/// more than a fixed share of its pairs (dense thresholds), when the margin
/// leaves no room below the threshold, when a valid row holds a NaN or
/// infinity or its scale is not a normal float, and, for every block, past
/// kMaxScreenSamples samples.
///
/// Determinism contract: every *emitted* correlation is profile_dot()'s
/// value — from the recheck, or from correlation_block, which accumulates
/// a[k] * b[k] in ascending k with one accumulator lane per pair (the
/// scalar reference order; vectorization runs across pairs, never within
/// one, and uses no FMA).  So the edge decision |corr| >= threshold is
/// made on the same double in every path and at every ISA.  Screen values
/// are not exact and are never emitted.  The sweep emits edges in a fixed
/// (block pair, i, j) order regardless of thread count or scheduling, so
/// edge sets — and anything built from them, including .gsbg containers —
/// are byte-identical across thread counts.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "util/page_allocator.h"

namespace gsb::bio {

/// Default rows per cache block for the sweep.  Two 128-row blocks
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
  /// Zero-filled rows, on their own pages (util::PageArray).
  AlignedRows(std::size_t rows, std::size_t samples)
      : rows_(rows),
        samples_(samples),
        stride_((samples + kAlignDoubles - 1) / kAlignDoubles * kAlignDoubles),
        data_(rows_ * stride_) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  /// Doubles between consecutive row starts (>= samples, multiple of 8).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  /// Bytes owned by the backing allocation.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return rows_ * stride_ * sizeof(double);
  }

  [[nodiscard]] double* row(std::size_t r) noexcept {
    return data_.data() + r * stride_;
  }
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return data_.data() + r * stride_;
  }

 private:
  static_assert(kAlignment <= util::kPageAllocatorAlignment);

  std::size_t rows_ = 0;
  std::size_t samples_ = 0;
  std::size_t stride_ = 0;
  util::PageArray<double> data_;
};

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
struct ScreenOperands;
/// A screen micro-kernel over one block pair (see BlockPairScan).
using ScreenFn = bool (*)(const ScreenOperands& operands, std::size_t limit,
                          std::vector<std::uint64_t>& candidates);
}  // namespace detail

/// Most samples the integer screen runs at: every partial sum of a dot
/// product of codes, Σ_done q_a·q_b − 90·Σ_rest q_b, stays within
/// 90 · 90 · samples, which must fit int32.  Past it every block is
/// computed exactly.
inline constexpr std::size_t kMaxScreenSamples = 2147483647 / (90 * 90);

/// One thresholded pair: global ids (u, v) and the correlation.
struct CorrHit {
  std::uint32_t u;
  std::uint32_t v;
  double corr;
};

/// Quantized copy of one block of rows for the screen.  Row r's samples
/// 4g .. 4g + 3 are one dword of four int8 codes, pad samples zero, at
/// codes()[((r / 16) * groups() + g) * 16 + r % 16]: a run of 16-row
/// tiles, each group of a tile one cache line, so one copy serves the
/// block as the A side (broadcasts) and as the B side (vector loads), and
/// a register tile streams through memory in order.
class ScreenPanel {
 public:
  ScreenPanel() = default;
  /// Room for up to \p rows rows of \p samples.
  ScreenPanel(std::size_t rows, std::size_t samples);

  /// Quantizes \p count (at most the panel's rows) rows starting at
  /// \p rows, \p stride doubles apart: row x gets the scale s, the
  /// smallest float >= max|x_k| / 90, and codes q_k = round(x_k / s).  It
  /// takes the largest norm bound of ‖x‖ and of ‖x − s·q‖ over the rows
  /// \p valid marks (block-local; nullptr = all valid).  Invalid rows get
  /// zero codes.
  void fill(const double* rows, std::size_t stride, std::size_t count,
            const unsigned char* valid) noexcept;

  [[nodiscard]] const std::uint32_t* codes() const noexcept {
    return codes_.get();
  }
  /// Per row: the scale s.
  [[nodiscard]] const float* scales() const noexcept { return scales_.data(); }
  /// Per row: −90 · Σq, a B row's start value for its dot products.
  [[nodiscard]] const std::int32_t* offsets() const noexcept {
    return offsets_.data();
  }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  /// Code dwords per row.
  [[nodiscard]] std::size_t groups() const noexcept { return groups_; }
  /// False when a valid row of the last fill holds a NaN or infinity,
  /// overflows its sum of squares, or has a scale that is not a normal
  /// float: blocks with this panel are then computed exactly.
  [[nodiscard]] bool screens() const noexcept { return screens_; }
  /// Largest norm bound over the valid rows of the last fill (0 if none).
  [[nodiscard]] double max_norm() const noexcept { return max_norm_; }
  /// Largest bound on a valid row's quantization error ‖x − s·q‖.
  [[nodiscard]] double max_error() const noexcept { return max_error_; }
  /// Bytes owned by the panel.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return rows_ * (groups_ * sizeof(std::uint32_t) + sizeof(float) +
                    sizeof(std::int32_t));
  }

 private:
  struct FreeDeleter {
    void operator()(std::uint32_t* p) const noexcept { std::free(p); }
  };

  std::size_t samples_ = 0;
  std::size_t groups_ = 0;
  std::size_t rows_ = 0;  ///< rows rounded up to whole tiles
  bool screens_ = true;
  double max_norm_ = 0.0;
  double max_error_ = 0.0;
  std::unique_ptr<std::uint32_t[], FreeDeleter> codes_;
  std::vector<float> scales_;
  std::vector<std::int32_t> offsets_;
};

/// One block of rows as the block-pair body reads it.
struct CorrBlock {
  const double* rows = nullptr;  ///< row 0; row r at rows + r * stride
  std::size_t stride = 0;        ///< doubles between row starts
  std::size_t count = 0;         ///< rows in the block
  const unsigned char* valid = nullptr;  ///< block-local; nullptr = all valid
  std::uint32_t first = 0;               ///< global id of row 0
  /// The block's filled quantized copy; read only when the scan screens.
  const ScreenPanel* panel = nullptr;
};

/// Per-worker scratch for BlockPairScan::scan, reused across calls.
struct CorrScanScratch {
  std::vector<double> dense;
  std::vector<double> pack;
  std::vector<std::uint64_t> candidates;
  std::vector<std::uint32_t> codes;  ///< the A panel's unsigned codes
  std::vector<float> cuts;           ///< per A row
};

/// The block-pair screen/recheck body of every sweep.  A scan screens the
/// pair's quantized panels, rechecks each surviving valid pair with
/// profile_dot and keeps it iff |corr| >= threshold; a block whose screen
/// passes too many pairs, whose margin leaves no room below the threshold,
/// or whose panel does not screen, is computed exactly with
/// correlation_block instead.
class BlockPairScan {
 public:
  /// Scans rows of \p samples at \p threshold with the default screen
  /// (detail::default_screen_kernel).  Each scan object counts as one sweep
  /// (gsb_correlation_sweeps_total).
  BlockPairScan(std::size_t samples, double threshold);
  /// The same with the screen fixed to \p kernel; throws
  /// std::invalid_argument when this build or CPU cannot run it.
  BlockPairScan(std::size_t samples, double threshold,
                detail::ScreenKernel kernel);

  /// False when every block is computed exactly (more than
  /// kMaxScreenSamples samples, or a threshold that leaves no room below
  /// it): then no block needs a panel.
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

namespace detail {

/// Upper bound on |screen − profile_dot(x, y, samples)| for rows x, y with
/// ‖x‖ <= norm_x, ‖x − s_x·q_x‖ <= err_x and likewise for y, where the
/// screen value is V = fl(fl(D)·s_y)·s_x for the exact code product
/// D = q_x·q_y (fl: float rounding).  With x̂ = s_x·q_x, ŷ = s_y·q_y (so
/// x̂·ŷ = s_x·s_y·D), n = samples, u = 2^-24, u_d = 2^-53 and
/// γ_d(m) = m·u_d / (1 − m·u_d):
///
///   * quantization: x·y − x̂·ŷ = (x − x̂)·y + x̂·(y − ŷ), so
///     |x·y − x̂·ŷ| <= err_x·‖y‖ + ‖x̂‖·err_y, with ‖x̂‖ <= norm_x + err_x;
///   * the epilogue: fl(D) = D(1 + δ0) (exact below 2^24), and the
///     product rounds relatively by u or absolutely by 2^-150 when
///     subnormal, so |V − x̂·ŷ| <= (2u + u²)·‖x̂‖‖ŷ‖ + 2^-150·s_x, and
///     s_x <= ‖x‖ (s_x is max|x_k| / 90 rounded up to a float);
///   * the integer sums are exact: every partial sum stays within
///     90 · 90 · n <= 2^31 − 1 for n <= kMaxScreenSamples;
///   * the double reference itself: |profile_dot − x·y| <=
///     γ_d(n + 1)·‖x‖‖y‖ + n·2^-1074·(1 + γ_d(n + 1)).
///
/// Summing, with h_x = norm_x + err_x and h_y = norm_y + err_y, the bound
/// is err_x·norm_y + h_x·err_y + (2u + u²)·h_x·h_y + 2^-150·norm_x +
/// γ_d(n + 1)·norm_x·norm_y + n·2^-1074·(1 + γ_d(n + 1)), inflated by
/// 2^-40 relatively to cover its own rounding.  It holds at every sample
/// count up to kMaxScreenSamples and is +inf past it, where the screen is
/// not used.  For unit-norm standardized ranks of 96 samples (err ≈
/// 0.0055) it is about 0.011.
double screen_margin(std::size_t samples, double norm_x, double err_x,
                     double norm_y, double err_y) noexcept;

/// The screen's micro-kernel variants, all listing the same candidates.
/// BlockPairScan runs the first of kAvxVnni, kAvx512Vnni, kAvx2 and
/// kVector128 this build and CPU support.
enum class ScreenKernel {
  kVector128,   ///< 128-bit GNU-vector body (SSE2 / NEON), any GCC/Clang
  kAvx2,        ///< vpmaddubsw + vpmaddwd, x86-64 CPUs with AVX2
  kAvxVnni,     ///< VEX vpdpbusd, CPUs with AVX-VNNI
  kAvx512Vnni,  ///< EVEX vpdpbusd on ymm, CPUs with AVX512-VNNI and VL
};

/// True when this build and CPU can run \p kernel.
bool screen_kernel_available(ScreenKernel kernel) noexcept;

/// The kernel BlockPairScan runs by default.
ScreenKernel default_screen_kernel() noexcept;

/// "vector128", "avx2", "avx_vnni" or "avx512_vnni".
const char* screen_kernel_name(ScreenKernel kernel) noexcept;

/// The pairs (i << 32 | j, ascending) that \p kernel's screen does not rule
/// out at \p threshold between the first \p a_count rows of \p a and the
/// first \p b_count of \p b (j > i when \p diagonal), with no density
/// limit.  Throws std::invalid_argument when the kernel is not available
/// or the block would be computed exactly.  For tests.
std::vector<std::uint64_t> screen_candidates(ScreenKernel kernel,
                                             double threshold,
                                             const ScreenPanel& a,
                                             std::size_t a_count,
                                             const ScreenPanel& b,
                                             std::size_t b_count,
                                             bool diagonal);

}  // namespace detail

}  // namespace gsb::bio

#endif  // GSB_BIO_CORR_KERNEL_H
