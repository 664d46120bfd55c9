#ifndef GSB_BIO_TILED_CORRELATION_H
#define GSB_BIO_TILED_CORRELATION_H

/// \file tiled_correlation.h
/// Tiled, out-of-core thresholded-correlation graph construction, and the
/// one standardize pass and one correlation sweep both builders run.
///
/// The in-memory builder (bio/correlation.h) standardizes every profile at
/// once and holds the full bitmap graph while thresholding — O(genes ×
/// samples) + O(genes² / 8) bytes, which is exactly what caps the repo
/// below genome scale.  It runs this builder's passes 1 and 2 on its rows
/// as one resident tile (standardize_rows, sweep_resident).  This builder
/// runs three passes; the first two are each one par::JobGraph over one
/// thread pool:
///   1. standardize: every row block of every tile is one job, which
///      copies the block's rows one at a time from the expression matrix
///      straight into its tile slot at the sweep's padded stride,
///      standardizes them in place and writes them to a scratch file at
///      that stride.  Two tile slots alternate, and a block job waits only
///      for the job that last used the same rows of its slot, so copies
///      run concurrently.  Resident: two tiles of doubles.
///   2. sweep: every block pair of the upper tile triangle is one job, and
///      so is every tile-block read from the scratch file.  A pair job waits
///      for the reads of its two blocks; a read refills its block as soon
///      as the jobs reading the block's previous rows finish, and
///      quantizes the block's screen panel (bio/corr_kernel.h) once, so an
///      A tile's panels serve its whole row of tile pairs.  Resident: the A
///      and B tiles of doubles with their quantized panels, and the hits of
///      finished pairs awaiting their turn, which the graph keeps within
///      TiledCorrelationResult::reorder_window_bytes (about one dense tile
///      pair of hits).  Completions drain in (tile pair, block pair, i, j)
///      order and append each edge to an edge spill file.
///   3. finalize: the spill becomes CSR and goes to the streaming .gsbg
///      writer (O(n + m) resident, one bitmap row of scratch).
/// Peak resident bytes are therefore bounded by the tile budget plus the
/// *output* size, never by genes² — the Fabregat-Traver/Bientinesi
/// out-of-core recipe applied to the paper's pipeline, in which an in-core
/// run is the streamed run with one tile.  The matrix it reads stays the
/// caller's, in RAM: genes × samples doubles, far below the genes² graph
/// the tiles keep out of memory.  Both builders go through the same
/// standardization and sweep (every emitted dot product is profile_dot's
/// value), so the produced edge set is bit-identical — across builders
/// and across thread counts.  The job graph's own
/// bookkeeping (a few hundred bytes per job, one job per block pair) is
/// not in the tracked peak.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bio/corr_kernel.h"
#include "bio/correlation.h"
#include "bio/expression.h"
#include "util/memory_tracker.h"

namespace gsb::par {
class ThreadPool;
}  // namespace gsb::par

namespace gsb::bio {

/// Standardized profiles plus per-row validity (false marks constant rows,
/// whose standardized profile is all-zero).
struct StandardizedRows {
  AlignedRows rows;
  std::vector<unsigned char> valid;
};

/// Pass 1 over an in-memory matrix, as one resident tile: every row of
/// \p expression standardized under \p method (standardized_profile_into)
/// into one aligned, zero-padded row block, row blocks as jobs.  \p pool
/// may be null (one worker); the rows are the same at every worker count.
StandardizedRows standardize_rows(const ExpressionMatrix& expression,
                                  CorrelationMethod method,
                                  par::ThreadPool* pool);

/// Receives the hits of one block pair, in (i, j) order.  Called from one
/// thread at a time, block pairs in (tile pair, block pair) order.
using CorrHitSink = std::function<void(const std::vector<CorrHit>&)>;

/// Pass 2 over rows already in memory, as one resident tile: \p scan runs
/// on every block pair of \p block_rows-row blocks (0 = kDefaultCorrBlock)
/// of the upper triangle of \p rows, and \p sink receives, block pair by
/// block pair, every pair with both rows valid (\p valid: one flag per
/// row) and |corr| >= threshold, row i as global id i.  The block reads
/// only quantize each block's panel.  \p pool may be null (one worker);
/// the hit sequence is the same at every worker count.
void sweep_resident(const AlignedRows& rows, const unsigned char* valid,
                    std::size_t block_rows, const BlockPairScan& scan,
                    par::ThreadPool* pool, const CorrHitSink& sink);

struct TiledCorrelationOptions {
  CorrelationMethod method = CorrelationMethod::kSpearman;
  /// Edge iff |corr| >= threshold.  (No target-edges mode: quantile
  /// estimation would need a second full sweep; pick the threshold with
  /// the in-memory estimator on a sample if needed.)
  double threshold = 0.85;
  /// Rows per tile — the memory budget knob.  Each of the first two
  /// passes holds two tiles: peak resident expression bytes are
  /// 2 * tile_rows * stride * 8 (stride = samples padded to a cache line
  /// of doubles), plus, in the sweep, the tiles' quantized panels (about an
  /// eighth of that: one byte per sample and eight per row).
  std::size_t tile_rows = 512;
  /// Worker threads for the standardize and sweep passes: 0 = hardware
  /// concurrency, 1 = the calling thread alone.  The produced .gsbg is
  /// byte-identical at every thread count (see corr_kernel.h's
  /// determinism contract).
  std::size_t threads = 1;
  /// Rows per cache block inside a tile pair; 0 = kernel default.
  std::size_t block_rows = 0;
  /// Byte-accounting sink; defaults to the process-global tracker.  Every
  /// buffer the builder allocates is reported here, so the tracker's peak
  /// is the builder's bounded-memory proof.
  util::MemoryTracker* tracker = nullptr;
};

struct TiledCorrelationResult {
  std::size_t genes = 0;
  std::size_t edges = 0;
  std::size_t tiles = 0;
  double threshold_used = 0.0;
  /// Peak bytes of the builder's buffers: tiles, quantized panels, spill
  /// batches, validity, CSR.
  std::size_t peak_tracked_bytes = 0;
  /// Bound on the bytes of hits the sweep holds between a pair job's end
  /// and its turn to drain (its JobGraph's pending bytes), outside the
  /// tracked peak.
  std::size_t reorder_window_bytes = 0;
};

/// Builds the thresholded correlation graph of \p expression out-of-core
/// and writes it to \p out_path as a .gsbg container.
TiledCorrelationResult build_correlation_gsbg(
    const ExpressionMatrix& expression, const std::string& out_path,
    const TiledCorrelationOptions& options = {});

}  // namespace gsb::bio

#endif  // GSB_BIO_TILED_CORRELATION_H
