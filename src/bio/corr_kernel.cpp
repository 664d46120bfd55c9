#include "bio/corr_kernel.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "bio/correlation.h"
#include "obs/metrics.h"

#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace gsb::bio {
namespace {

/// Packed-panel columns per register tile: one cache line of doubles.
constexpr std::size_t kPackJ = 8;

// The register-tiled micro kernel exists in two flavors sharing one body,
// written with GNU vector extensions: an explicit 128-bit vector version
// (SSE2 / NEON — two lanes per register, sixteen independent chains), and
// a 256-bit AVX version selected at runtime on x86-64.  The explicit
// vector form matters: left to itself the autovectorizer turns the k loop
// into an in-order vectorized reduction (it may not reassociate the adds),
// which runs at half the speed of vectorizing *across* columns.  Both
// flavors accumulate each (row, column) pair in ascending k with one
// accumulator lane — the exact profile_dot order — so they produce
// bit-identical results on every ISA.
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

// --- The integer screen -----------------------------------------------------

/// Rows per panel tile and columns per register tile: the dwords of one
/// sample group of a tile fill one cache line.
constexpr std::size_t kScreenJ = 16;

/// Samples per code dword.
constexpr std::size_t kGroup = 4;

/// Largest code magnitude.  The A side's codes are offset by it to
/// [0, 2 · kCodeMax], so a vpmaddubsw pair sum stays within 2 · 180 · 90 =
/// 32,400 and never saturates int16.
constexpr int kCodeMax = 90;

/// A block whose screen passes more than 1/kExactShare of its pairs is
/// computed with correlation_block instead: rechecking most pairs one
/// profile_dot (one serial add chain) at a time made dense thresholds
/// several times slower than the exact block product.
constexpr std::size_t kExactShare = 16;

/// Screens one block pair (see detail::ScreenOperands; `upper` keeps it to
/// pairs with j > i, a diagonal block).  Appends every pair (i, j) the
/// screen does not rule out, as (i << 32) | j, grouped by register tile.
/// Returns false, leaving the list incomplete, once it holds more than
/// \p limit pairs.
using detail::ScreenFn;

}  // namespace

namespace detail {

/// One block pair as a screen body reads it: the A panel's codes offset to
/// unsigned with each row's cut, the B panel as filled.
struct ScreenOperands {
  const std::uint32_t* a_codes;  ///< A codes + kCodeMax, panel layout
  const float* a_cut;            ///< per A row (whole tiles): c_i
  std::size_t a_count;
  const std::uint32_t* b_codes;   ///< B codes, panel layout
  const std::int32_t* b_offset;   ///< per B row: −kCodeMax · Σq
  const float* b_scale;           ///< per B row: s
  std::size_t b_count;
  std::size_t groups;  ///< sample groups per row
  bool upper;          ///< a diagonal block: only pairs with j > i
};

}  // namespace detail

namespace {

using detail::ScreenOperands;

/// The screen's test for one pair with exact code product \p dot: true
/// (ruled out) when |fl(fl(D) · s_b)| < c_i.  Every body makes the same
/// float operations in registers, so all list the same pairs.
inline bool screen_inside(std::int32_t dot, float scale_b,
                          float cut_a) noexcept {
  return std::fabs(static_cast<float>(dot) * scale_b) < cut_a;
}

/// Appends the live pairs of one spilled register tile (row r's dot
/// products at dots + r * kScreenJ) that screen_inside does not rule out,
/// as (i << 32) | j.
void list_outside(const ScreenOperands& op, const std::int32_t* dots,
                  std::size_t i0, std::size_t rows, std::size_t j0,
                  std::size_t cols, std::vector<std::uint64_t>& candidates) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = op.upper && i0 + r >= j0 ? i0 + r + 1 - j0 : 0;
         c < cols; ++c) {
      if (!screen_inside(dots[r * kScreenJ + c], op.b_scale[j0 + c],
                         op.a_cut[i0 + r])) {
        candidates.push_back(static_cast<std::uint64_t>(i0 + r) << 32 |
                             (j0 + c));
      }
    }
  }
}

/// Upper bound on the Euclidean norm of a row of \p samples doubles whose
/// squares summed, in any order, to \p ss: covers the sum's rounding
/// (γ_d(n) <= 2^-33 for n <= 2^20), each square's underflow and the sqrt.
double norm_bound(double ss, std::size_t samples) noexcept {
  return std::sqrt(ss + static_cast<double>(samples) *
                            std::numeric_limits<double>::denorm_min()) *
         (1.0 + 0x1p-30);
}

/// The largest float <= \p v, for v > 0 (FLT_MAX past it).
float float_below(double v) noexcept {
  if (v >= static_cast<double>(FLT_MAX)) return FLT_MAX;
  float f = static_cast<float>(v);
  if (static_cast<double>(f) > v) f = std::nextafter(f, 0.0f);
  return f;
}

/// The largest float <= threshold − margin, or 0 (rule nothing out) when
/// that is not positive.  The (1 − 2^-50) factor absorbs the rounding of
/// the subtraction.
float screen_cut(double threshold, double margin) noexcept {
  const double cut = (threshold - margin) * (1.0 - 0x1p-50);
  return cut > 0.0 ? float_below(cut) : 0.0f;
}

using V4si = std::int32_t __attribute__((vector_size(16)));

/// The portable body: 128-bit GNU vectors (SSE2 / NEON).
namespace screen_v128 {
#define GSB_SCREEN_TARGET
using Vec = V4si;
constexpr std::size_t kRows = 2;
constexpr std::size_t kTail = 2;

/// Each int16 lane multiplies its two bytes separately (signed B, unsigned
/// A) and sums them, at most 32,400; each int32 lane then adds its two
/// int16 halves.  Every step is a native 128-bit operation.
inline Vec dot(Vec acc, Vec a, Vec b) {
  using V8hi = std::int16_t __attribute__((vector_size(16)));
  using V8hu = std::uint16_t __attribute__((vector_size(16)));
  const V8hi bw = (V8hi)b;
  const V8hu aw = (V8hu)a;
  const V8hi pairs = ((V8hi)(bw << 8) >> 8) * (V8hi)(aw & 0xff) +
                     (bw >> 8) * (V8hi)(aw >> 8);
  const Vec halves = (Vec)pairs;
  return acc + ((halves << 16) >> 16) + (halves >> 16);
}

#include "bio/corr_screen.inc"
#undef GSB_SCREEN_TARGET
}  // namespace screen_v128

#if defined(GSB_CORR_AVX_KERNEL)

using V8si = std::int32_t __attribute__((vector_size(32)));

/// AVX2: vpmaddubsw sums adjacent byte products into int16 (no saturation
/// at 32,400), vpmaddwd the int16 pairs into int32.
namespace screen_avx2 {
#define GSB_SCREEN_TARGET __attribute__((target("avx2")))
using Vec = V8si;
constexpr std::size_t kRows = 4;
constexpr std::size_t kTail = 4;

GSB_SCREEN_TARGET inline Vec dot(Vec acc, Vec a, Vec b) {
  const __m256i pairs = _mm256_maddubs_epi16((__m256i)a, (__m256i)b);
  return acc + (Vec)_mm256_madd_epi16(pairs, _mm256_set1_epi16(1));
}

#include "bio/corr_screen.inc"
#undef GSB_SCREEN_TARGET
}  // namespace screen_avx2

/// AVX-VNNI: one VEX vpdpbusd per four samples.
namespace screen_avx_vnni {
#define GSB_SCREEN_TARGET __attribute__((target("avx2,avxvnni")))
using Vec = V8si;
constexpr std::size_t kRows = 6;
constexpr std::size_t kTail = 4;

GSB_SCREEN_TARGET inline Vec dot(Vec acc, Vec a, Vec b) {
  return (Vec)_mm256_dpbusd_avx_epi32((__m256i)acc, (__m256i)a, (__m256i)b);
}

#include "bio/corr_screen.inc"
#undef GSB_SCREEN_TARGET
}  // namespace screen_avx_vnni

/// AVX512-VNNI with VL: the EVEX vpdpbusd on ymm registers.
namespace screen_avx512_vnni {
#define GSB_SCREEN_TARGET \
  __attribute__((target("avx2,avx512vnni,avx512vl")))
using Vec = V8si;
constexpr std::size_t kRows = 6;
constexpr std::size_t kTail = 4;

GSB_SCREEN_TARGET inline Vec dot(Vec acc, Vec a, Vec b) {
  return (Vec)_mm256_dpbusd_epi32((__m256i)acc, (__m256i)a, (__m256i)b);
}

#include "bio/corr_screen.inc"
#undef GSB_SCREEN_TARGET
}  // namespace screen_avx512_vnni

bool cpu_has_avx2() noexcept {
  static const bool have = __builtin_cpu_supports("avx2") != 0;
  return have;
}

/// CPUID.(EAX=7, ECX=1):EAX bit 4.  Read directly: not every compiler's
/// __builtin_cpu_supports knows "avxvnni".  The OS's AVX state check comes
/// with avx2.
bool cpu_has_avx_vnni() noexcept {
  static const bool have = [] {
    unsigned eax = 0;
    unsigned ebx = 0;
    unsigned ecx = 0;
    unsigned edx = 0;
    return cpu_has_avx2() && __get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) &&
           (eax & (1u << 4)) != 0;
  }();
  return have;
}

bool cpu_has_avx512_vnni() noexcept {
  static const bool have = cpu_has_avx2() &&
                           __builtin_cpu_supports("avx512vnni") != 0 &&
                           __builtin_cpu_supports("avx512vl") != 0;
  return have;
}
#endif  // GSB_CORR_AVX_KERNEL

/// \p kernel's screen, or nullptr when this build or CPU cannot run it.
ScreenFn screen_fn(detail::ScreenKernel kernel) noexcept {
  switch (kernel) {
    case detail::ScreenKernel::kVector128:
      return screen_v128::screen;
#if defined(GSB_CORR_AVX_KERNEL)
    case detail::ScreenKernel::kAvx2:
      return cpu_has_avx2() ? screen_avx2::screen : nullptr;
    case detail::ScreenKernel::kAvxVnni:
      return cpu_has_avx_vnni() ? screen_avx_vnni::screen : nullptr;
    case detail::ScreenKernel::kAvx512Vnni:
      return cpu_has_avx512_vnni() ? screen_avx512_vnni::screen : nullptr;
#else
    default:  // the x86 bodies
      return nullptr;
#endif
  }
  return nullptr;
}

/// The default screen.
ScreenFn best_screen() noexcept {
  static const ScreenFn best = screen_fn(detail::default_screen_kernel());
  return best;
}

/// Screens one block pair with \p screen at \p threshold, leaving the
/// pairs it does not rule out in scratch.candidates.  False when the block
/// must be computed exactly: a panel that does not screen, a margin that
/// leaves no room below the threshold, or more than \p limit candidates
/// (the list is then incomplete).
bool screen_pair(ScreenFn screen, double threshold, const ScreenPanel& a,
                 std::size_t a_count, const ScreenPanel& b,
                 std::size_t b_count, bool diagonal, std::size_t limit,
                 CorrScanScratch& scratch) {
  if (!a.screens() || !b.screens()) return false;
  const float cut = screen_cut(
      threshold, detail::screen_margin(a.samples(), a.max_norm(),
                                       a.max_error(), b.max_norm(),
                                       b.max_error()));
  if (cut == 0.0f) return false;
  // The A side as unsigned bytes q + kCodeMax, and each row's cut c_i: the
  // largest float with c_i · s_i < cut.  Pad rows get FLT_MAX (their dot
  // products are 0).
  const std::size_t rows = (a_count + kScreenJ - 1) / kScreenJ * kScreenJ;
  const std::size_t bytes = rows * a.groups() * sizeof(std::uint32_t);
  scratch.codes.resize(rows * a.groups());
  const auto* src = reinterpret_cast<const unsigned char*>(a.codes());
  auto* dst = reinterpret_cast<unsigned char*>(scratch.codes.data());
  for (std::size_t k = 0; k < bytes; ++k) {
    dst[k] = static_cast<unsigned char>(src[k] + kCodeMax);
  }
  scratch.cuts.assign(rows, FLT_MAX);
  for (std::size_t i = 0; i < a_count; ++i) {
    scratch.cuts[i] = float_below(static_cast<double>(cut) /
                                  static_cast<double>(a.scales()[i]) *
                                  (1.0 - 0x1p-50));
  }
  const ScreenOperands op{scratch.codes.data(), scratch.cuts.data(), a_count,
                          b.codes(),            b.offsets(),         b.scales(),
                          b_count,              a.groups(),          diagonal};
  scratch.candidates.clear();
  return screen(op, limit, scratch.candidates);
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
                         "double block product (screen too dense, no room "
                         "below the threshold, or rows the screen cannot "
                         "quantize)."),
        registry.counter("gsb_correlation_rechecked_pairs_total",
                         "Pairs the integer screen passed that were "
                         "recomputed with profile_dot."),
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
  compute_block_v128(a_rows, a_count, a_stride, scratch.data(), ldb, samples,
                     b_count, out, out_stride);
}

ScreenPanel::ScreenPanel(std::size_t rows, std::size_t samples)
    : samples_(samples),
      groups_((samples + kGroup - 1) / kGroup),
      rows_((rows + kScreenJ - 1) / kScreenJ * kScreenJ),
      scales_(rows_),
      offsets_(rows_) {
  const std::size_t bytes = rows_ * groups_ * sizeof(std::uint32_t);
  if (bytes == 0) return;
  // A tile's group is one cache line, so the size is a multiple of the
  // alignment.
  codes_.reset(static_cast<std::uint32_t*>(
      std::aligned_alloc(AlignedRows::kAlignment, bytes)));
  if (codes_ == nullptr) throw std::bad_alloc();
}

namespace {

/// One row's quantization (see ScreenPanel::fill).
struct RowCodes {
  float scale = 1.0f;
  std::int32_t offset = 0;  ///< −kCodeMax · Σq
  double norm_ss = 0.0;     ///< Σx², computed
  double error_ss = 0.0;    ///< Σ(x − s·q)², computed
};

/// Quantizes row \p x of \p samples into the dwords column[g * kScreenJ],
/// one per sample group, pad samples zero, with \p Vd (a GNU vector of 2
/// or 4 doubles) covering a group in kGroup / lanes halves; \p Vi is the
/// int64 vector of its size.  False, writing nothing, when the row holds a
/// NaN or infinity, when Σx² overflows, or when its scale is not a normal
/// float.
template <typename Vd, typename Vi>
__attribute__((always_inline)) inline bool quantize_row(
    const double* x, std::size_t samples, std::uint32_t* column,
    RowCodes& out) noexcept {
  constexpr std::size_t kLanes = sizeof(Vd) / sizeof(double);
  constexpr std::size_t kHalves = kGroup / kLanes;
  using V4si = std::int32_t __attribute__((vector_size(16)));
  using V16qi = std::int8_t __attribute__((vector_size(16)));
  // (v + kRound) − kRound rounds v to the nearest integer for |v| < 2^51.
  constexpr double kRound = 0x1.8p52;
  const std::size_t full = samples / kGroup;
  const std::size_t groups = (samples + kGroup - 1) / kGroup;
  // The last group with its pad samples zero, which adds nothing to any
  // sum below.
  double tail[kGroup] = {};
  if (full < groups) std::copy(x + full * kGroup, x + samples, tail);
  auto load = [&](std::size_t g, Vd (&v)[kHalves]) {
    const double* src = g < full ? x + g * kGroup : tail;
    for (std::size_t h = 0; h < kHalves; ++h) {
      std::memcpy(&v[h], src + h * kLanes, sizeof(Vd));
    }
  };
  // Two sets of partial sums per lane, one for even and one for odd
  // groups, so consecutive groups do not wait on one add chain; the norm
  // bounds hold for any order.
  const Vi magnitude = Vi{} + std::numeric_limits<std::int64_t>::max();
  Vd top[2][kHalves] = {};
  Vd ss[2][kHalves] = {};
  auto scan = [&](std::size_t g, std::size_t c) {
    Vd v[kHalves];
    load(g, v);
    for (std::size_t h = 0; h < kHalves; ++h) {
      const Vd size = (Vd)((Vi)v[h] & magnitude);
      top[c][h] = size > top[c][h] ? size : top[c][h];  // NaN never wins
      ss[c][h] += v[h] * v[h];
    }
  };
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2) {
    scan(g, 0);
    scan(g + 1, 1);
  }
  if (g < groups) scan(g, 0);
  double m = 0.0;
  out.norm_ss = 0.0;
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t h = 0; h < kHalves; ++h) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        m = std::max(m, top[c][h][l]);
        out.norm_ss += ss[c][h][l];
      }
    }
  }
  if (!std::isfinite(out.norm_ss)) return false;
  // s: the smallest float >= m / kCodeMax, so every |x_k / s| <= 90.
  out.scale = 1.0f;
  if (m > 0.0) {
    const double want = m / kCodeMax;
    if (!(want >= static_cast<double>(FLT_MIN)) ||
        want > static_cast<double>(FLT_MAX)) {
      return false;
    }
    out.scale = static_cast<float>(want);
    if (static_cast<double>(out.scale) < want) {  // the next float up
      out.scale =
          std::bit_cast<float>(std::bit_cast<std::uint32_t>(out.scale) + 1);
    }
  }
  const double scale = out.scale;
  const double inv = 1.0 / scale;
  Vd err[2][kHalves] = {};
  Vd sum[2][kHalves] = {};
  auto quantize = [&](std::size_t g, std::size_t c) {
    Vd v[kHalves];
    load(g, v);
    Vd y[kHalves];
    Vd q[kHalves];
    for (std::size_t h = 0; h < kHalves; ++h) {
      y[h] = v[h] * inv + kRound;
      q[h] = y[h] - kRound;               // in [−90, 90]
      const Vd e = v[h] - scale * q[h];  // scale · q is exact
      err[c][h] += e * e;
      sum[c][h] += q[h];
    }
    if constexpr (kHalves == 1) {
      // Four int32 lanes, then their low bytes (one byte shuffle).
      const V4si ints = __builtin_convertvector(q[0], V4si);
      const auto codes =
          __builtin_shufflevector((V16qi)ints, (V16qi)ints, 0, 4, 8, 12);
      std::memcpy(column + g * kScreenJ, &codes, sizeof(std::uint32_t));
    } else {
      // 128-bit targets may lack a byte shuffle: y's low byte is the code
      // in two's complement; shift each into place in its int64 lane and
      // OR the lanes together.
      Vi word = {};
      for (std::size_t h = 0; h < kHalves; ++h) {
        const Vi shift = {static_cast<std::int64_t>(16 * h),
                          static_cast<std::int64_t>(16 * h + 8)};
        word |= ((Vi)y[h] & 0xff) << shift;
      }
      word |= __builtin_shufflevector(word, word, 1, 0);
      column[g * kScreenJ] = static_cast<std::uint32_t>(word[0]);
    }
  };
  for (g = 0; g + 2 <= groups; g += 2) {
    quantize(g, 0);
    quantize(g + 1, 1);
  }
  if (g < groups) quantize(g, 0);
  out.error_ss = 0.0;
  double total = 0.0;
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t h = 0; h < kHalves; ++h) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        out.error_ss += err[c][h][l];
        total += sum[c][h][l];
      }
    }
  }
  out.offset = static_cast<std::int32_t>(-kCodeMax *
                                         static_cast<std::int64_t>(total));
  return true;
}

using QuantizeFn = bool (*)(const double*, std::size_t, std::uint32_t*,
                            RowCodes&) noexcept;

bool quantize_row_v128(const double* x, std::size_t samples,
                       std::uint32_t* column, RowCodes& out) noexcept {
  using V2df = double __attribute__((vector_size(16)));
  using V2di = std::int64_t __attribute__((vector_size(16)));
  return quantize_row<V2df, V2di>(x, samples, column, out);
}

#if defined(GSB_CORR_AVX_KERNEL)
__attribute__((target("avx2"))) bool quantize_row_avx2(
    const double* x, std::size_t samples, std::uint32_t* column,
    RowCodes& out) noexcept {
  using V4df = double __attribute__((vector_size(32)));
  using V4di = std::int64_t __attribute__((vector_size(32)));
  return quantize_row<V4df, V4di>(x, samples, column, out);
}
#endif

/// The row quantizer for this CPU; every one writes the same codes.
QuantizeFn row_quantizer() noexcept {
#if defined(GSB_CORR_AVX_KERNEL)
  if (cpu_has_avx2()) return quantize_row_avx2;
#endif
  return quantize_row_v128;
}

}  // namespace

void ScreenPanel::fill(const double* rows, std::size_t stride,
                       std::size_t count, const unsigned char* valid) noexcept {
  screens_ = true;
  std::uint32_t* tile = codes_.get();
  static const QuantizeFn quantize = row_quantizer();
  // Tiles past the block's live rows are never read.  Pad rows, invalid
  // rows and rows that do not quantize get zero codes and scale 1, so
  // their dot products are 0.
  bool any = false;
  double norm_ss = 0.0;
  double error_ss = 0.0;
  for (std::size_t t0 = 0; t0 < count;
       t0 += kScreenJ, tile += kScreenJ * groups_) {
    for (std::size_t c = 0; c < kScreenJ; ++c) {
      const std::size_t r = t0 + c;
      RowCodes row;
      if (r < count && (valid == nullptr || valid[r] != 0)) {
        if (quantize(rows + r * stride, samples_, tile + c, row)) {
          any = true;
          norm_ss = std::max(norm_ss, row.norm_ss);
          error_ss = std::max(error_ss, row.error_ss);
          scales_[r] = row.scale;
          offsets_[r] = row.offset;
          continue;
        }
        screens_ = false;
      }
      for (std::size_t g = 0; g < groups_; ++g) tile[g * kScreenJ + c] = 0;
      scales_[r] = 1.0f;
      offsets_[r] = 0;
    }
  }
  // norm_bound is increasing, so the largest sum gives the largest bound.
  max_norm_ = any ? norm_bound(norm_ss, samples_) : 0.0;
  max_error_ = any ? norm_bound(error_ss, samples_) : 0.0;
}

BlockPairScan::BlockPairScan(std::size_t samples, double threshold)
    : screen_(best_screen()), samples_(samples), threshold_(threshold) {
  sweep_counters().sweeps.inc();
  // A threshold that leaves no room below it for even the smallest margin
  // screens nothing out: every block is computed exactly.
  if (screen_cut(threshold,
                 detail::screen_margin(samples, 0.0, 0.0, 0.0, 0.0)) == 0) {
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
  const std::size_t pairs = diagonal ? ci * (ci - 1) / 2 : ci * cj;
  if (screen_ == nullptr ||
      !screen_pair(screen_, threshold_, *a.panel, ci, *b.panel, cj, diagonal,
                   pairs / kExactShare, scratch)) {
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
  // emission order.
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

namespace detail {

double screen_margin(std::size_t samples, double norm_x, double err_x,
                     double norm_y, double err_y) noexcept {
  if (samples > kMaxScreenSamples) {
    return std::numeric_limits<double>::infinity();
  }
  const double n = static_cast<double>(samples);
  const double u = 0x1p-24;
  const double gd = (n + 1) * 0x1p-53 / (1 - (n + 1) * 0x1p-53);
  const double h_x = norm_x + err_x;  // bounds ‖x̂‖
  const double h_y = norm_y + err_y;
  const double bound = err_x * norm_y + h_x * err_y +
                       (2 * u + u * u) * h_x * h_y + 0x1p-150 * norm_x +
                       gd * norm_x * norm_y + n * 0x1p-1074 * (1 + gd);
  return bound * (1 + 0x1p-40);
}

bool screen_kernel_available(ScreenKernel kernel) noexcept {
  return screen_fn(kernel) != nullptr;
}

ScreenKernel default_screen_kernel() noexcept {
  for (const auto kernel : {ScreenKernel::kAvxVnni, ScreenKernel::kAvx512Vnni,
                            ScreenKernel::kAvx2}) {
    if (screen_kernel_available(kernel)) return kernel;
  }
  return ScreenKernel::kVector128;
}

const char* screen_kernel_name(ScreenKernel kernel) noexcept {
  switch (kernel) {
    case ScreenKernel::kVector128:
      return "vector128";
    case ScreenKernel::kAvx2:
      return "avx2";
    case ScreenKernel::kAvxVnni:
      return "avx_vnni";
    case ScreenKernel::kAvx512Vnni:
      return "avx512_vnni";
  }
  return "unknown";
}

std::vector<std::uint64_t> screen_candidates(
    ScreenKernel kernel, double threshold, const ScreenPanel& a,
    std::size_t a_count, const ScreenPanel& b, std::size_t b_count,
    bool diagonal) {
  const ScreenFn screen = screen_fn(kernel);
  if (screen == nullptr) {
    throw std::invalid_argument("screen_candidates: kernel not available");
  }
  CorrScanScratch scratch;
  if (!screen_pair(screen, threshold, a, a_count, b, b_count, diagonal,
                   std::numeric_limits<std::size_t>::max(), scratch)) {
    throw std::invalid_argument("screen_candidates: block not screened");
  }
  std::sort(scratch.candidates.begin(), scratch.candidates.end());
  return std::move(scratch.candidates);
}

}  // namespace detail

}  // namespace gsb::bio
