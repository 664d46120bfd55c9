#include "bio/corr_kernel.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "parallel/job_graph.h"

namespace gsb::bio {
namespace {

/// Packed-panel columns per register tile: one cache line of doubles.
constexpr std::size_t kPackJ = 8;

// The register-tiled micro kernel exists in three flavors sharing one
// body: a portable scalar fallback, an explicit 128-bit vector version
// (SSE2 / NEON — two lanes per register, sixteen independent chains), and
// a 256-bit AVX version selected at runtime on x86-64.  The explicit
// vector form matters: left to itself the autovectorizer turns the k loop
// into an in-order vectorized reduction (it may not reassociate the adds),
// which runs at half the speed of vectorizing *across* columns.  Every
// flavor accumulates each (row, column) pair in ascending k with one
// accumulator lane — the exact profile_dot order — so all three produce
// bit-identical results on every ISA.
#if defined(__GNUC__) || defined(__clang__)
#define GSB_CORR_VECTOR_KERNEL 1
#endif

#if defined(GSB_CORR_VECTOR_KERNEL)

using V2df = double __attribute__((vector_size(16)));
using V4df = double __attribute__((vector_size(32)));

/// Computes kIRows consecutive output rows against the packed panel with
/// kPackJ accumulator lanes of type Vec per row.  Lane (r, j0 + w * lanes
/// + l) folds a_r[k] * b[k] in ascending k — profile_dot's order — and
/// lanes never mix, so the result is independent of the vector width.
template <std::size_t kIRows, typename Vec>
__attribute__((always_inline)) inline void panel_rows(
    const double* a, std::size_t a_stride, const double* bt, std::size_t ldb,
    std::size_t samples, std::size_t b_count, double* out,
    std::size_t out_stride) {
  constexpr std::size_t kLanes = sizeof(Vec) / sizeof(double);
  constexpr std::size_t kVecs = kPackJ / kLanes;
  const std::size_t j_full = b_count / kPackJ * kPackJ;
  for (std::size_t j0 = 0; j0 < b_count; j0 += kPackJ) {
    Vec acc[kIRows][kVecs] = {};
    const double* panel = bt + j0;
    for (std::size_t k = 0; k < samples; ++k) {
      const double* b = panel + k * ldb;
      Vec bv[kVecs];
      for (std::size_t w = 0; w < kVecs; ++w) {
        std::memcpy(&bv[w], b + w * kLanes, sizeof(Vec));
      }
      for (std::size_t r = 0; r < kIRows; ++r) {
        const double av = a[r * a_stride + k];  // broadcast over each lane
        for (std::size_t w = 0; w < kVecs; ++w) acc[r][w] += bv[w] * av;
      }
    }
    if (j0 < j_full) {
      for (std::size_t r = 0; r < kIRows; ++r) {
        for (std::size_t w = 0; w < kVecs; ++w) {
          std::memcpy(out + r * out_stride + j0 + w * kLanes, &acc[r][w],
                      sizeof(Vec));
        }
      }
    } else {
      // Ragged tail tile: spill the full tile, copy the live columns.
      const std::size_t jn = b_count - j0;
      double tail[kPackJ];
      for (std::size_t r = 0; r < kIRows; ++r) {
        for (std::size_t w = 0; w < kVecs; ++w) {
          std::memcpy(tail + w * kLanes, &acc[r][w], sizeof(Vec));
        }
        for (std::size_t t = 0; t < jn; ++t) {
          out[r * out_stride + j0 + t] = tail[t];
        }
      }
    }
  }
}

void compute_block_v128(const double* a_rows, std::size_t a_count,
                        std::size_t a_stride, const double* bt,
                        std::size_t ldb, std::size_t samples,
                        std::size_t b_count, double* out,
                        std::size_t out_stride) {
  std::size_t i = 0;
  for (; i + 2 <= a_count; i += 2) {
    panel_rows<2, V2df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
  if (i < a_count) {
    panel_rows<1, V2df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
}

#if defined(__x86_64__) || defined(__i386__)
#define GSB_CORR_AVX_KERNEL 1
/// 256-bit variant: four A rows in flight, eight ymm accumulators.  No
/// FMA even on machines that have it — fusing would round differently
/// from the scalar reference and break the bitwise contract.
__attribute__((target("avx"))) void compute_block_avx(
    const double* a_rows, std::size_t a_count, std::size_t a_stride,
    const double* bt, std::size_t ldb, std::size_t samples,
    std::size_t b_count, double* out, std::size_t out_stride) {
  std::size_t i = 0;
  for (; i + 4 <= a_count; i += 4) {
    panel_rows<4, V4df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
  for (; i + 2 <= a_count; i += 2) {
    panel_rows<2, V4df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
  if (i < a_count) {
    panel_rows<1, V4df>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                        b_count, out + i * out_stride, out_stride);
  }
}
#endif  // x86

#else  // !GSB_CORR_VECTOR_KERNEL

/// Portable fallback for compilers without GNU vector extensions.
template <std::size_t kIRows>
void micro_panel_scalar(const double* a, std::size_t a_stride,
                        const double* bt, std::size_t ldb,
                        std::size_t samples, std::size_t b_count, double* out,
                        std::size_t out_stride) {
  for (std::size_t j0 = 0; j0 < b_count; j0 += kPackJ) {
    double acc[kIRows][kPackJ] = {};
    const double* panel = bt + j0;
    for (std::size_t k = 0; k < samples; ++k) {
      const double* b = panel + k * ldb;
      for (std::size_t r = 0; r < kIRows; ++r) {
        const double av = a[r * a_stride + k];
        for (std::size_t t = 0; t < kPackJ; ++t) acc[r][t] += av * b[t];
      }
    }
    const std::size_t jn = std::min(kPackJ, b_count - j0);
    for (std::size_t r = 0; r < kIRows; ++r) {
      for (std::size_t t = 0; t < jn; ++t) {
        out[r * out_stride + j0 + t] = acc[r][t];
      }
    }
  }
}

void compute_block_scalar(const double* a_rows, std::size_t a_count,
                          std::size_t a_stride, const double* bt,
                          std::size_t ldb, std::size_t samples,
                          std::size_t b_count, double* out,
                          std::size_t out_stride) {
  std::size_t i = 0;
  for (; i + 2 <= a_count; i += 2) {
    micro_panel_scalar<2>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                          b_count, out + i * out_stride, out_stride);
  }
  if (i < a_count) {
    micro_panel_scalar<1>(a_rows + i * a_stride, a_stride, bt, ldb, samples,
                          b_count, out + i * out_stride, out_stride);
  }
}

#endif  // GSB_CORR_VECTOR_KERNEL

// --- The single-precision screen ------------------------------------------

/// Screen columns per register tile: one cache line of floats.
constexpr std::size_t kScreenJ = 16;

/// A block whose screen passes more than 1/kExactShare of its pairs is
/// computed with correlation_block instead: rechecking most pairs one
/// profile_dot (one serial add chain) at a time made dense thresholds
/// several times slower than the exact block product.
constexpr std::size_t kExactShare = 16;

/// Screens one block pair of panels (see ScreenPanel); \p upper keeps it
/// to pairs with j > i (a diagonal block).  Appends every pair (i, j)
/// whose screen value is not strictly inside (−cut, cut), as (i << 32) |
/// j, grouped by register tile.  Returns false, leaving the list
/// incomplete, once it holds more than \p limit pairs.
using detail::ScreenFn;

/// Upper bound on the Euclidean norm of a row of \p samples doubles whose
/// squares summed, in any order, to \p ss: covers the sum's rounding
/// (γ_d(n) <= 2^-33 for n <= 2^20), each square's underflow and the sqrt.
double norm_bound(double ss, std::size_t samples) noexcept {
  return std::sqrt(ss + static_cast<double>(samples) *
                            std::numeric_limits<double>::denorm_min()) *
         (1.0 + 0x1p-30);
}

/// The float panels of rows [0, count), one per sweep block.  A panel is
/// filled by the first task that asks for it, so the sweep's workers
/// share the conversion.
class ScreenPanels {
 public:
  ScreenPanels(const AlignedRows& rows, std::size_t count,
               const unsigned char* valid, std::size_t block)
      : rows_(rows),
        count_(count),
        valid_(valid),
        block_(block),
        panels_((count + block - 1) / block),
        filled_(std::make_unique<std::once_flag[]>(panels_.size())) {
    for (auto& panel : panels_) {
      panel = ScreenPanel(std::min(block, count), rows.samples());
    }
  }

  /// Panel \p p, filled.  Thread-safe.
  [[nodiscard]] const ScreenPanel& panel(std::size_t p) const {
    std::call_once(filled_[p], [this, p] {
      const std::size_t first = p * block_;
      panels_[p].fill(rows_.row(first), rows_.stride(),
                      std::min(block_, count_ - first),
                      valid_ == nullptr ? nullptr : valid_ + first);
    });
    return panels_[p];
  }

 private:
  const AlignedRows& rows_;
  std::size_t count_;
  const unsigned char* valid_;
  std::size_t block_;
  mutable std::vector<ScreenPanel> panels_;
  std::unique_ptr<std::once_flag[]> filled_;
};

/// The largest float <= threshold − margin, or 0 (rule nothing out) when
/// that is not positive.  The (1 − 2^-50) factor absorbs the rounding of
/// the subtraction.
float screen_cut(double threshold, double margin) noexcept {
  const double cut = (threshold - margin) * (1.0 - 0x1p-50);
  if (!(cut > 0.0)) return 0.0f;
  if (cut >= static_cast<double>(FLT_MAX)) return FLT_MAX;
  float f = static_cast<float>(cut);
  if (static_cast<double>(f) > cut) f = std::nextafter(f, 0.0f);
  return f;
}

#if defined(GSB_CORR_VECTOR_KERNEL)

using V4sf = float __attribute__((vector_size(16)));
using V8sf = float __attribute__((vector_size(32)));

/// One register tile of the screen: kRows A rows (from \p a, rows of the
/// A tile starting at i0) × kScreenJ columns of the B tile, float
/// accumulators contracted to FMA where the target has it.  The tile is
/// dropped in registers when every lane is strictly inside (−cut, cut);
/// NaN and ±inf lanes compare false, so they survive.  Otherwise its
/// live pairs (j > i when \p upper) that are not inside are listed.
template <std::size_t kRows, typename Vec>
__attribute__((always_inline)) inline void screen_tile(
    const float* a, const float* b_tile, std::size_t samples, float cut,
    std::size_t i0, std::size_t rows, std::size_t j0, std::size_t cols,
    bool upper, std::vector<std::uint64_t>& candidates) {
  constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);
  constexpr std::size_t kVecs = kScreenJ / kLanes;
  using Mask = decltype(Vec{} < Vec{});
  Vec acc[kRows][kVecs] = {};
  for (std::size_t k = 0; k < samples; ++k) {
    const float* b = b_tile + k * kScreenJ;
    Vec bv[kVecs];
    for (std::size_t w = 0; w < kVecs; ++w) {
      std::memcpy(&bv[w], b + w * kLanes, sizeof(Vec));
    }
    for (std::size_t r = 0; r < kRows; ++r) {
      const float av = a[k * kScreenJ + r];
      for (std::size_t w = 0; w < kVecs; ++w) acc[r][w] += bv[w] * av;
    }
  }
  const Vec hi = Vec{} + cut;
  const Vec lo = Vec{} - cut;
  Mask inside = (acc[0][0] < hi) & (acc[0][0] > lo);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t w = 0; w < kVecs; ++w) {
      inside &= (acc[r][w] < hi) & (acc[r][w] > lo);
    }
  }
  std::uint64_t words[sizeof(Mask) / sizeof(std::uint64_t)];
  std::memcpy(words, &inside, sizeof(Mask));
  std::uint64_t all = ~std::uint64_t{0};
  for (const std::uint64_t word : words) all &= word;
  if (all == ~std::uint64_t{0}) return;

  // Spill through copies: taking acc's address would keep it in memory
  // for every tile.
  float tile[kRows][kScreenJ];
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t w = 0; w < kVecs; ++w) {
      const Vec lanes = acc[r][w];
      std::memcpy(tile[r] + w * kLanes, &lanes, sizeof(Vec));
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = upper && i0 + r >= j0 ? i0 + r + 1 - j0 : 0;
         c < cols; ++c) {
      const float v = tile[r][c];
      if (!(v < cut && v > -cut)) {
        candidates.push_back(static_cast<std::uint64_t>(i0 + r) << 32 |
                             (j0 + c));
      }
    }
  }
}

/// The screen over one block pair: for each pair of kScreenJ-row A and B
/// tiles (both stay in L1), register tiles of kRows rows, then kTail rows
/// for what is left of the A tile.
template <std::size_t kRows, std::size_t kTail, typename Vec>
__attribute__((always_inline)) inline bool screen_panels(
    const float* a_panel, std::size_t a_count, const float* b_panel,
    std::size_t b_count, bool upper, std::size_t samples, float cut,
    std::size_t limit, std::vector<std::uint64_t>& candidates) {
  static_assert((kScreenJ % kRows) % kTail == 0 && kTail <= kRows);
  const std::size_t tile_floats = kScreenJ * samples;
  for (std::size_t ti = 0; ti < a_count; ti += kScreenJ) {
    const float* a_tile = a_panel + ti / kScreenJ * tile_floats;
    const std::size_t a_end = std::min(a_count, ti + kScreenJ);
    // B tiles left of this A tile lie below the diagonal.
    for (std::size_t j0 = upper ? ti : 0; j0 < b_count; j0 += kScreenJ) {
      const float* b_tile = b_panel + j0 / kScreenJ * tile_floats;
      const std::size_t cols = std::min(kScreenJ, b_count - j0);
      std::size_t i0 = ti;
      for (; i0 + kRows <= ti + kScreenJ && i0 < a_end; i0 += kRows) {
        screen_tile<kRows, Vec>(a_tile + (i0 - ti), b_tile, samples, cut, i0,
                                std::min(kRows, a_end - i0), j0, cols, upper,
                                candidates);
      }
      for (; i0 < a_end; i0 += kTail) {
        screen_tile<kTail, Vec>(a_tile + (i0 - ti), b_tile, samples, cut, i0,
                                std::min(kTail, a_end - i0), j0, cols, upper,
                                candidates);
      }
      if (candidates.size() > limit) return false;
    }
  }
  return true;
}

bool screen_v128(const float* a_panel, std::size_t a_count,
                 const float* b_panel, std::size_t b_count, bool upper,
                 std::size_t samples, float cut, std::size_t limit,
                 std::vector<std::uint64_t>& candidates) {
  return screen_panels<2, 2, V4sf>(a_panel, a_count, b_panel, b_count, upper,
                                   samples, cut, limit, candidates);
}

#if defined(GSB_CORR_AVX_KERNEL)
__attribute__((target("avx2,fma"))) bool screen_avx2(
    const float* a_panel, std::size_t a_count, const float* b_panel,
    std::size_t b_count, bool upper, std::size_t samples, float cut,
    std::size_t limit, std::vector<std::uint64_t>& candidates) {
  return screen_panels<6, 4, V8sf>(a_panel, a_count, b_panel, b_count, upper,
                                   samples, cut, limit, candidates);
}

bool cpu_has_avx2_fma() noexcept {
  static const bool have = __builtin_cpu_supports("avx2") != 0 &&
                           __builtin_cpu_supports("fma") != 0;
  return have;
}
#endif  // GSB_CORR_AVX_KERNEL

#endif  // GSB_CORR_VECTOR_KERNEL

/// \p kernel's screen, or nullptr when this build or CPU cannot run it.
ScreenFn screen_fn(detail::ScreenKernel kernel) noexcept {
  switch (kernel) {
    case detail::ScreenKernel::kVector128:
#if defined(GSB_CORR_VECTOR_KERNEL)
      return screen_v128;
#else
      return nullptr;
#endif
    case detail::ScreenKernel::kAvx2Fma:
#if defined(GSB_CORR_AVX_KERNEL)
      return cpu_has_avx2_fma() ? screen_avx2 : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

/// The widest screen this build and CPU run; nullptr (every block exact)
/// without GNU vector extensions.
ScreenFn best_screen() noexcept {
  static const ScreenFn best = [] {
    const ScreenFn avx2 = screen_fn(detail::ScreenKernel::kAvx2Fma);
    return avx2 != nullptr ? avx2
                           : screen_fn(detail::ScreenKernel::kVector128);
  }();
  return best;
}

struct SweepCounters {
  obs::Counter sweeps;
  obs::Counter blocks;
  obs::Counter exact_blocks;
  obs::Counter rechecked_pairs;
};

const SweepCounters& sweep_counters() {
  static const SweepCounters counters = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    return SweepCounters{
        registry.counter("gsb_correlation_sweeps_total",
                         "Blocked correlation sweeps run."),
        registry.counter("gsb_correlation_blocks_total",
                         "Correlation tile blocks computed across sweeps."),
        registry.counter("gsb_correlation_exact_blocks_total",
                         "Correlation blocks computed exactly with the "
                         "double block product (screen too dense or no "
                         "room below the threshold)."),
        registry.counter("gsb_correlation_rechecked_pairs_total",
                         "Pairs the single-precision screen passed that "
                         "were recomputed with profile_dot."),
    };
  }();
  return counters;
}

}  // namespace

void correlation_block(const double* a_rows, std::size_t a_count,
                       const double* b_rows, std::size_t b_count,
                       std::size_t samples, std::size_t a_stride,
                       std::size_t b_stride, double* out,
                       std::size_t out_stride, std::vector<double>& scratch) {
  if (a_count == 0 || b_count == 0) return;
  // Pack B transposed (sample-major) with the column count rounded up to a
  // whole register tile; pad columns stay zero so full-tile loads are safe.
  const std::size_t ldb = (b_count + kPackJ - 1) / kPackJ * kPackJ;
  scratch.resize(samples * ldb);
  if (ldb != b_count) {
    // Only the pad columns need zeroing; the live ones are overwritten by
    // the pack loop below (a full assign would double the packing
    // traffic on the hot path).
    for (std::size_t k = 0; k < samples; ++k) {
      double* pad = scratch.data() + k * ldb + b_count;
      std::fill(pad, pad + (ldb - b_count), 0.0);
    }
  }
  for (std::size_t j = 0; j < b_count; ++j) {
    const double* src = b_rows + j * b_stride;
    double* dst = scratch.data() + j;
    for (std::size_t k = 0; k < samples; ++k) dst[k * ldb] = src[k];
  }
#if defined(GSB_CORR_AVX_KERNEL)
  static const bool have_avx = __builtin_cpu_supports("avx") != 0;
  if (have_avx) {
    compute_block_avx(a_rows, a_count, a_stride, scratch.data(), ldb, samples,
                      b_count, out, out_stride);
    return;
  }
#endif
#if defined(GSB_CORR_VECTOR_KERNEL)
  compute_block_v128(a_rows, a_count, a_stride, scratch.data(), ldb, samples,
                     b_count, out, out_stride);
#else
  compute_block_scalar(a_rows, a_count, a_stride, scratch.data(), ldb,
                       samples, b_count, out, out_stride);
#endif
}

ScreenPanel::ScreenPanel(std::size_t rows, std::size_t samples)
    : samples_(samples),
      floats_((rows + kScreenJ - 1) / kScreenJ * kScreenJ * samples) {
  if (floats_ == 0) return;
  // A tile is a whole number of cache lines, so the size is a multiple of
  // the alignment.
  data_.reset(static_cast<float*>(
      std::aligned_alloc(AlignedRows::kAlignment, floats_ * sizeof(float))));
  if (data_ == nullptr) throw std::bad_alloc();
}

void ScreenPanel::fill(const double* rows, std::size_t stride,
                       std::size_t count, const unsigned char* valid) noexcept {
  max_norm_ = 0.0;
  float* tile = data_.get();
  // Tiles past the block's live rows are never read.
  for (std::size_t t0 = 0; t0 < count;
       t0 += kScreenJ, tile += kScreenJ * samples_) {
    const std::size_t rows_here = std::min(kScreenJ, count - t0);
    const double* src[kScreenJ];
    for (std::size_t c = 0; c < rows_here; ++c) {
      src[c] = rows + (t0 + c) * stride;
    }
    double ss[kScreenJ] = {};
    for (std::size_t k = 0; k < samples_; ++k) {
      float* out = tile + k * kScreenJ;
      for (std::size_t c = 0; c < rows_here; ++c) {
        const double x = src[c][k];
        out[c] = static_cast<float>(x);
        ss[c] += x * x;
      }
      std::fill(out + rows_here, out + kScreenJ, 0.0f);
    }
    for (std::size_t c = 0; c < rows_here; ++c) {
      if (valid != nullptr && valid[t0 + c] == 0) continue;
      max_norm_ = std::max(max_norm_, norm_bound(ss[c], samples_));
    }
  }
}

BlockPairScan::BlockPairScan(std::size_t samples, double threshold)
    : screen_(best_screen()), samples_(samples), threshold_(threshold) {
  sweep_counters().sweeps.inc();
  // A threshold that leaves no room below it for even the smallest margin
  // screens nothing out: every block is computed exactly.
  if (screen_cut(threshold, detail::screen_margin(samples, 0.0, 0.0)) == 0) {
    screen_ = nullptr;
  }
}

BlockPairScan::BlockPairScan(std::size_t samples, double threshold,
                             detail::ScreenKernel kernel)
    : BlockPairScan(samples, threshold) {
  const ScreenFn screen = screen_fn(kernel);
  if (screen == nullptr) {
    throw std::invalid_argument("BlockPairScan: screen kernel not available");
  }
  if (screen_ != nullptr) screen_ = screen;
}

void BlockPairScan::scan(const CorrBlock& a, const CorrBlock& b,
                         bool diagonal, CorrScanScratch& scratch,
                         std::vector<CorrHit>& hits) const {
  const SweepCounters& counters = sweep_counters();
  counters.blocks.inc();
  const std::size_t ci = a.count;
  const std::size_t cj = b.count;
  auto emit = [&](std::size_t i, std::size_t j, double corr) {
    if (std::fabs(corr) >= threshold_) {
      hits.push_back(CorrHit{a.first + static_cast<std::uint32_t>(i),
                             b.first + static_cast<std::uint32_t>(j), corr});
    }
  };
  bool exact = true;
  if (screen_ != nullptr) {
    const float cut = screen_cut(
        threshold_, detail::screen_margin(samples_, a.panel->max_norm(),
                                          b.panel->max_norm()));
    scratch.candidates.clear();
    const std::size_t pairs = diagonal ? ci * (ci - 1) / 2 : ci * cj;
    exact = cut == 0.0f ||
            !screen_(a.panel->data(), ci, b.panel->data(), cj, diagonal,
                     samples_, cut, pairs / kExactShare, scratch.candidates);
  }
  if (exact) {
    counters.exact_blocks.inc();
    scratch.dense.resize(ci * cj);
    correlation_block(a.rows, ci, b.rows, cj, samples_, a.stride, b.stride,
                      scratch.dense.data(), cj, scratch.pack);
    for (std::size_t i = 0; i < ci; ++i) {
      if (a.valid != nullptr && a.valid[i] == 0) continue;
      const double* row = scratch.dense.data() + i * cj;
      for (std::size_t j = diagonal ? i + 1 : 0; j < cj; ++j) {
        if (b.valid != nullptr && b.valid[j] == 0) continue;
        emit(i, j, row[j]);
      }
    }
    return;
  }
  // The screen lists its survivors tile by tile; (i, j) order is the
  // emission order.  The recheck runs here, outside the FMA-targeted
  // screen, so profile_dot rounds exactly as everywhere else.
  std::sort(scratch.candidates.begin(), scratch.candidates.end());
  std::uint64_t rechecked = 0;
  for (const std::uint64_t key : scratch.candidates) {
    const auto i = static_cast<std::size_t>(key >> 32);
    const auto j = static_cast<std::size_t>(key & 0xffffffffu);
    if (a.valid != nullptr && a.valid[i] == 0) continue;
    if (b.valid != nullptr && b.valid[j] == 0) continue;
    ++rechecked;
    emit(i, j, profile_dot(a.rows + i * a.stride, b.rows + j * b.stride,
                           samples_));
  }
  counters.rechecked_pairs.inc(rechecked);
}

namespace {

/// correlation_cross with \p scan's screen.
void sweep(const BlockPairScan& scan, const AlignedRows& a,
           std::size_t a_count, const unsigned char* a_valid,
           std::uint32_t a_first, const AlignedRows& b, std::size_t b_count,
           const unsigned char* b_valid, std::uint32_t b_first, bool diagonal,
           const CorrSweepOptions& options, const CorrEdgeSink& sink) {
  if (a_count == 0 || b_count == 0) return;
  if (a.samples() != b.samples()) {
    throw std::invalid_argument("correlation_cross: sample count mismatch");
  }
  const std::size_t block =
      options.block == 0 ? kDefaultCorrBlock : options.block;

  struct Task {
    std::size_t i0;
    std::size_t j0;
  };
  std::vector<Task> tasks;
  for (std::size_t i0 = 0; i0 < a_count; i0 += block) {
    for (std::size_t j0 = diagonal ? i0 : 0; j0 < b_count; j0 += block) {
      tasks.push_back(Task{i0, j0});
    }
  }

  // Float copies, made once per call; a self sweep shares one.
  std::optional<ScreenPanels> a_panels;
  std::optional<ScreenPanels> b_panels;
  if (scan.screens()) {
    const bool shared = &a == &b && a_valid == b_valid;
    a_panels.emplace(a, shared ? std::max(a_count, b_count) : a_count,
                     a_valid, block);
    if (!shared) b_panels.emplace(b, b_count, b_valid, block);
  }
  const ScreenPanels* a_screen = a_panels ? &*a_panels : nullptr;
  const ScreenPanels* b_screen = b_panels ? &*b_panels : a_screen;
  auto block_at = [&](const AlignedRows& rows, std::size_t count,
                      const unsigned char* valid, std::uint32_t first,
                      const ScreenPanels* panels, std::size_t r0) {
    CorrBlock view;
    view.rows = rows.row(r0);
    view.stride = rows.stride();
    view.count = std::min(block, count - r0);
    view.valid = valid == nullptr ? nullptr : valid + r0;
    view.first = first + static_cast<std::uint32_t>(r0);
    view.panel = panels == nullptr ? nullptr : &panels->panel(r0 / block);
    return view;
  };
  auto scan_task = [&](const Task& task, CorrScanScratch& scratch,
                       std::vector<CorrHit>& hits) {
    // On a diagonal block pair only pairs above the diagonal are new.
    scan.scan(block_at(a, a_count, a_valid, a_first, a_screen, task.i0),
              block_at(b, b_count, b_valid, b_first, b_screen, task.j0),
              diagonal && task.j0 == task.i0, scratch, hits);
  };

  par::ThreadPool* pool = options.pool;
  if (pool == nullptr || pool->size() <= 1 || tasks.size() <= 1) {
    CorrScanScratch scratch;
    std::vector<CorrHit> hits;
    for (const Task& task : tasks) {
      hits.clear();
      scan_task(task, scratch, hits);
      for (const CorrHit& h : hits) sink(h.u, h.v, h.corr);
    }
    return;
  }

  // One scheduler job per block pair; bodies run work-stealing across the
  // pool while the ordered completions replay each pair's hits in task
  // order, so the sink sees the exact sequence of the sequential path.
  par::JobGraph::Options graph_options;
  graph_options.ordered = true;
  par::JobGraph jobs(pool, graph_options);
  std::vector<CorrScanScratch> scratch(jobs.workers());
  std::vector<std::vector<CorrHit>> completed(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    par::JobGraph::JobSpec spec;
    spec.run = [&, t](std::size_t wid) {
      std::vector<CorrHit> hits;
      scan_task(tasks[t], scratch[wid], hits);
      jobs.set_bytes(static_cast<par::JobId>(t),
                     hits.size() * sizeof(CorrHit));
      completed[t] = std::move(hits);
    };
    spec.complete = [&, t] {
      for (const CorrHit& h : completed[t]) sink(h.u, h.v, h.corr);
      // Not `= {}`: that assigns an empty initializer list and keeps the
      // capacity, so every drained pair's hits would stay resident.
      completed[t] = std::vector<CorrHit>();
    };
    jobs.add(std::move(spec));
  }
  jobs.run();
}

}  // namespace

void correlation_cross(const AlignedRows& a, std::size_t a_count,
                       const unsigned char* a_valid, std::uint32_t a_first,
                       const AlignedRows& b, std::size_t b_count,
                       const unsigned char* b_valid, std::uint32_t b_first,
                       bool diagonal, double threshold,
                       const CorrSweepOptions& options,
                       const CorrEdgeSink& sink) {
  sweep(BlockPairScan(a.samples(), threshold), a, a_count, a_valid, a_first,
        b, b_count, b_valid, b_first, diagonal, options, sink);
}

void correlation_self(const AlignedRows& rows, std::size_t count,
                      const unsigned char* valid, double threshold,
                      const CorrSweepOptions& options,
                      const CorrEdgeSink& sink) {
  correlation_cross(rows, count, valid, 0, rows, count, valid, 0,
                    /*diagonal=*/true, threshold, options, sink);
}

StandardizedRows standardize_rows(const ExpressionMatrix& expression,
                                  CorrelationMethod method) {
  StandardizedRows out{
      AlignedRows(expression.genes(), expression.samples()),
      std::vector<unsigned char>(expression.genes(), 0)};
  StandardizeScratch scratch;
  for (std::size_t g = 0; g < expression.genes(); ++g) {
    out.valid[g] = standardized_profile_into(expression.row(g), method,
                                             out.rows.row(g), scratch)
                       ? 1
                       : 0;
  }
  return out;
}

namespace detail {

double screen_margin(std::size_t samples, double norm_x,
                     double norm_y) noexcept {
  if (samples > (std::size_t{1} << 20)) {
    return std::numeric_limits<double>::infinity();
  }
  const double n = static_cast<double>(samples);
  const double u = 0x1p-24;
  const double g = (n + 1) * u / (1 - (n + 1) * u);
  const double gd = (n + 1) * 0x1p-53 / (1 - (n + 1) * 0x1p-53);
  const double c1 = 2 * u + u * u + g * (1 + u) * (1 + u) + gd;
  const double c2 = 0x1p-150 * (1 + u) * (1 + g) * std::sqrt(n);
  const double c3 = n * (0x1p-149 + 0x1p-300 + 0x1p-1074) * (1 + g);
  return (c1 * norm_x * norm_y + c2 * (norm_x + norm_y) + c3) *
         (1 + 0x1p-40);
}

bool screen_kernel_available(ScreenKernel kernel) noexcept {
  return screen_fn(kernel) != nullptr;
}

void correlation_cross_with(ScreenKernel kernel, const AlignedRows& a,
                            std::size_t a_count, const unsigned char* a_valid,
                            std::uint32_t a_first, const AlignedRows& b,
                            std::size_t b_count, const unsigned char* b_valid,
                            std::uint32_t b_first, bool diagonal,
                            double threshold, const CorrSweepOptions& options,
                            const CorrEdgeSink& sink) {
  sweep(BlockPairScan(a.samples(), threshold, kernel), a, a_count, a_valid,
        a_first, b, b_count, b_valid, b_first, diagonal, options, sink);
}

}  // namespace detail

}  // namespace gsb::bio
