#include "bio/corr_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

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

void correlation_cross(const AlignedRows& a, std::size_t a_count,
                       const unsigned char* a_valid, std::uint32_t a_first,
                       const AlignedRows& b, std::size_t b_count,
                       const unsigned char* b_valid, std::uint32_t b_first,
                       bool diagonal, double threshold,
                       const CorrSweepOptions& options,
                       const CorrEdgeSink& sink) {
  if (a_count == 0 || b_count == 0) return;
  if (a.samples() != b.samples()) {
    throw std::invalid_argument("correlation_cross: sample count mismatch");
  }
  const std::size_t samples = a.samples();
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
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    static const obs::Counter sweeps = registry.counter(
        "gsb_correlation_sweeps_total", "Blocked correlation sweeps run.");
    static const obs::Counter blocks = registry.counter(
        "gsb_correlation_blocks_total",
        "Correlation tile blocks computed across sweeps.");
    sweeps.inc();
    blocks.inc(tasks.size());
  }

  struct Hit {
    std::uint32_t u;
    std::uint32_t v;
    double corr;
  };
  auto scan_task = [&](const Task& task, std::vector<double>& dense,
                       std::vector<double>& pack, std::vector<Hit>& hits) {
    const std::size_t ci = std::min(block, a_count - task.i0);
    const std::size_t cj = std::min(block, b_count - task.j0);
    dense.resize(ci * cj);
    correlation_block(a.row(task.i0), ci, b.row(task.j0), cj, samples,
                      a.stride(), b.stride(), dense.data(), cj, pack);
    for (std::size_t i = 0; i < ci; ++i) {
      if (a_valid != nullptr && a_valid[task.i0 + i] == 0) continue;
      // On a diagonal block pair only pairs above the diagonal are new.
      std::size_t j = diagonal && task.j0 == task.i0 ? i + 1 : 0;
      const double* row = dense.data() + i * cj;
      for (; j < cj; ++j) {
        if (b_valid != nullptr && b_valid[task.j0 + j] == 0) continue;
        const double corr = row[j];
        if (std::fabs(corr) >= threshold) {
          hits.push_back(
              Hit{a_first + static_cast<std::uint32_t>(task.i0 + i),
                  b_first + static_cast<std::uint32_t>(task.j0 + j), corr});
        }
      }
    }
  };

  par::ThreadPool* pool = options.pool;
  if (pool == nullptr || pool->size() <= 1 || tasks.size() <= 1) {
    std::vector<double> dense;
    std::vector<double> pack;
    std::vector<Hit> hits;
    for (const Task& task : tasks) {
      hits.clear();
      scan_task(task, dense, pack, hits);
      for (const Hit& h : hits) sink(h.u, h.v, h.corr);
    }
    return;
  }

  // One scheduler job per tile; bodies run work-stealing across the
  // pool while the ordered completions replay each tile's hits in task
  // order, so the sink sees the exact sequence of the sequential path.
  par::JobGraph::Options graph_options;
  graph_options.ordered = true;
  par::JobGraph jobs(pool, graph_options);
  struct Scratch {
    std::vector<double> dense;
    std::vector<double> pack;
  };
  std::vector<Scratch> scratch(jobs.workers());
  std::vector<std::vector<Hit>> completed(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    par::JobGraph::JobSpec spec;
    spec.run = [&, t](std::size_t wid) {
      Scratch& s = scratch[wid];
      std::vector<Hit> hits;
      scan_task(tasks[t], s.dense, s.pack, hits);
      jobs.set_bytes(static_cast<par::JobId>(t), hits.size() * sizeof(Hit));
      completed[t] = std::move(hits);
    };
    spec.complete = [&, t] {
      for (const Hit& h : completed[t]) sink(h.u, h.v, h.corr);
      // Not `= {}`: that assigns an empty initializer list and keeps the
      // capacity, so every drained tile's hits would stay resident.
      completed[t] = std::vector<Hit>();
    };
    jobs.add(std::move(spec));
  }
  jobs.run();
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

}  // namespace gsb::bio
