#include "bio/tiled_correlation.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "bio/corr_kernel.h"
#include "obs/timeline.h"
#include "parallel/job_graph.h"
#include "parallel/thread_pool.h"
#include "storage/gsbg_writer.h"
#include "util/io.h"

namespace gsb::bio {
namespace {

using util::MemTag;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("tiled correlation: " + what);
}

/// Read-write scratch file that deletes itself on scope exit.  Positioned
/// reads and writes never move the file offset, so a pass's jobs share
/// the descriptor.
class ScratchFile {
 public:
  explicit ScratchFile(std::string path) : path_(std::move(path)) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
    if (fd_ < 0) fail("cannot open '" + path_ + "' for writing");
  }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  ~ScratchFile() {
    ::close(fd_);
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  void append(const void* data, std::size_t bytes) const {
    if (!util::io::write_full(fd_, data, bytes)) {
      fail("write failed for '" + path_ + "'");
    }
  }
  void write_at(std::uint64_t offset, const void* data,
                std::size_t bytes) const {
    if (!util::io::pwrite_full(fd_, data, bytes, offset)) {
      fail("write failed for '" + path_ + "'");
    }
  }
  void read_at(std::uint64_t offset, void* data, std::size_t bytes) const {
    if (!util::io::pread_full(fd_, data, bytes, offset)) {
      fail("short read from '" + path_ + "'");
    }
  }

 private:
  std::string path_;
  int fd_ = -1;
};

/// One thresholded edge in the spill file.
struct SpillEdge {
  std::uint32_t u;
  std::uint32_t v;
};

/// Edges per spill write and per spill read (8 KiB).
constexpr std::size_t kSpillBatch = 1024;

/// RAII allocation recorded against two trackers: the builder's private one
/// (whose peak is the bounded-memory measurement the result reports) and
/// the caller's (process-wide accounting, whose peak is left untouched by
/// this builder's lifecycle).
class DualAlloc {
 public:
  DualAlloc(util::MemoryTracker& local, util::MemoryTracker& external,
            std::size_t bytes, MemTag tag) noexcept
      : local_(local), external_(external), bytes_(bytes), tag_(tag) {
    local_.allocate(bytes_, tag_);
    external_.allocate(bytes_, tag_);
  }
  DualAlloc(const DualAlloc&) = delete;
  DualAlloc& operator=(const DualAlloc&) = delete;
  ~DualAlloc() {
    local_.release(bytes_, tag_);
    external_.release(bytes_, tag_);
  }

 private:
  util::MemoryTracker& local_;
  util::MemoryTracker& external_;
  std::size_t bytes_;
  MemTag tag_;
};

/// One tile of standardized rows, split into sweep blocks, with each
/// block's quantized panel and the bookkeeping that orders its refills:
/// a block is refilled by a read job that waits for every job that read
/// the block since its last fill.  A resident tile views rows already in
/// memory instead of holding its own.
struct TileSlots {
  TileSlots(const AlignedRows* resident, std::size_t count,
            std::size_t samples, std::size_t block, bool screens)
      : resident(resident),
        held(resident == nullptr ? count : 0, samples),
        readers((count + block - 1) / block),
        fill(readers.size(), 0) {
    if (screens) panels.resize(readers.size());
    for (auto& panel : panels) {
      panel = ScreenPanel(std::min(block, count), samples);
    }
  }

  [[nodiscard]] const AlignedRows& rows() const noexcept {
    return resident != nullptr ? *resident : held;
  }

  [[nodiscard]] std::size_t bytes() const noexcept {
    std::size_t total = held.bytes();
    for (const auto& panel : panels) total += panel.bytes();
    return total;
  }

  const AlignedRows* resident;  ///< the rows when already in memory
  AlignedRows held;             ///< otherwise, the rows read from scratch
  std::vector<ScreenPanel> panels;  ///< one per block; empty: no screen
  std::vector<std::vector<par::JobId>> readers;
  std::vector<par::JobId> fill;
};

/// The sweep of both builders: every block pair of the upper tile triangle
/// as a job of one ordered JobGraph.  Block reads are jobs too: a pair job
/// waits for the reads of its two blocks, and a read waits for the jobs
/// still reading the block it refills, so two tiles (and their panels)
/// stay resident and reads overlap the screen.  The out-of-core build
/// reads its blocks from the scratch file; the in-memory build's rows are
/// one resident tile, whose reads only quantize each block's panel.
/// Completions drain in (tile pair, block pair) order, the order of the
/// sequential sweep.
class TileSweep {
 public:
  /// Sweeps \p genes rows of \p samples, read from \p scratch in tiles of
  /// \p tile rows or, when \p scratch is null, held in \p resident (then
  /// \p tile must be at least \p genes).
  TileSweep(const ScratchFile* scratch, const AlignedRows* resident,
            std::size_t genes, std::size_t samples, std::size_t tile,
            std::size_t block, const unsigned char* valid,
            const BlockPairScan& scan, par::ThreadPool* pool,
            const CorrHitSink& sink)
      : scratch_(scratch),
        n_(genes),
        tile_(tile),
        block_(block),
        valid_(valid),
        scan_(scan),
        sink_(sink),
        a_(resident, std::min(tile, genes), samples, block, scan.screens()),
        b_(resident, genes > tile ? tile : 0, samples, block,
           scan.screens()),
        window_(window_for(pool, tile, genes, block)),
        graph_(pool, graph_options(pool, window_, block)),
        scan_scratch_(graph_.workers()) {}

  /// Bytes of the tiles this sweep holds and their panels.
  [[nodiscard]] std::size_t tile_bytes() const noexcept {
    return a_.bytes() + b_.bytes();
  }

  /// Bound on the bytes of hits held between a pair job's end and its
  /// turn to drain: one dense tile pair of hits, and at least room for two
  /// more block pairs than there are workers.
  [[nodiscard]] std::size_t window_bytes() const noexcept { return window_; }

  void run() {
    obs::TimelineSpan span(obs::TimelineEventKind::kStage, "sweep");
    for (std::size_t fi = 0; fi < n_; fi += tile_) {
      const std::size_t ci = std::min(tile_, n_ - fi);
      for (std::size_t i0 = 0; i0 < ci; i0 += block_) {
        add_read(a_, i0 / block_, fi + i0, std::min(block_, ci - i0));
      }
      for (std::size_t fj = fi; fj < n_; fj += tile_) {
        const std::size_t cj = std::min(tile_, n_ - fj);
        const bool same_tile = fj == fi;
        if (!same_tile) {
          for (std::size_t j0 = 0; j0 < cj; j0 += block_) {
            add_read(b_, j0 / block_, fj + j0, std::min(block_, cj - j0));
          }
        }
        for (std::size_t i0 = 0; i0 < ci; i0 += block_) {
          for (std::size_t j0 = same_tile ? i0 : 0; j0 < cj; j0 += block_) {
            add_pair(Pair{fi + i0, std::min(block_, ci - i0), fj + j0,
                          std::min(block_, cj - j0), same_tile});
          }
        }
      }
    }
    graph_.run();
  }

 private:
  struct Read {
    TileSlots* slots;
    std::size_t block;  ///< block index within the tile
    std::size_t first;  ///< global id of the block's first row
    std::size_t count;
  };
  struct Pair {
    std::size_t a_first;
    std::size_t a_count;
    std::size_t b_first;
    std::size_t b_count;
    bool same_tile;  ///< B rows are the A tile's (a diagonal tile pair)
    par::JobId id = 0;
  };

  static std::size_t workers(const par::ThreadPool* pool) noexcept {
    return pool == nullptr ? 1 : pool->size();
  }

  static std::size_t window_for(const par::ThreadPool* pool,
                                std::size_t tile, std::size_t genes,
                                std::size_t block) noexcept {
    // Clamped so that no realistic tile overflows the product.
    const std::size_t rows = std::min({tile, genes, std::size_t{1} << 24});
    return std::max(rows * rows, (workers(pool) + 2) * block * block) *
           sizeof(CorrHit);
  }

  static par::JobGraph::Options graph_options(const par::ThreadPool* pool,
                                              std::size_t window,
                                              std::size_t block) noexcept {
    par::JobGraph::Options options;
    options.ordered = true;
    // The graph stops opening pairs at its bound.  Past it, each worker's
    // pair in flight, and the next pair to drain (which the graph runs to
    // unblock the drain), may each still add one block pair of hits.
    options.window_bytes =
        window - (workers(pool) + 1) * block * block * sizeof(CorrHit);
    return options;
  }

  void add_read(TileSlots& slots, std::size_t blk, std::size_t first,
                std::size_t count) {
    reads_.push_back(Read{&slots, blk, first, count});
    par::JobGraph::JobSpec spec;
    spec.label = "tile-read";
    spec.deps = std::move(slots.readers[blk]);
    slots.readers[blk].clear();
    spec.run = [this, r = reads_.size() - 1](std::size_t) { read(reads_[r]); };
    slots.fill[blk] = graph_.add(std::move(spec));
  }

  void add_pair(Pair pair) {
    const std::size_t ab = (pair.a_first % tile_) / block_;
    const std::size_t bb = (pair.b_first % tile_) / block_;
    TileSlots& b = pair.same_tile ? a_ : b_;
    const bool one_block = pair.same_tile && ab == bb;
    par::JobGraph::JobSpec spec;
    spec.label = "block-pair";
    spec.deps.push_back(a_.fill[ab]);
    if (!one_block) spec.deps.push_back(b.fill[bb]);
    const std::size_t t = pairs_.size();
    spec.run = [this, t](std::size_t worker) { screen(t, worker); };
    spec.complete = [this, t] { drain(t); };
    pairs_.push_back(pair);
    completed_.emplace_back();
    const par::JobId id = graph_.add(std::move(spec));
    pairs_[t].id = id;
    a_.readers[ab].push_back(id);
    if (!one_block) b.readers[bb].push_back(id);
  }

  void read(const Read& r) {
    TileSlots& slots = *r.slots;
    const std::size_t stride = slots.rows().stride();
    if (slots.resident == nullptr) {
      scratch_->read_at(r.first * stride * sizeof(double),
                        slots.held.row(r.block * block_),
                        r.count * stride * sizeof(double));
    }
    if (!slots.panels.empty()) {
      slots.panels[r.block].fill(slots.rows().row(r.block * block_), stride,
                                 r.count, valid_ + r.first);
    }
  }

  [[nodiscard]] CorrBlock view(const TileSlots& slots, std::size_t first,
                               std::size_t count) const {
    const std::size_t blk = (first % tile_) / block_;
    CorrBlock block;
    block.rows = slots.rows().row(blk * block_);
    block.stride = slots.rows().stride();
    block.count = count;
    block.valid = valid_ + first;
    block.first = static_cast<std::uint32_t>(first);
    block.panel = slots.panels.empty() ? nullptr : &slots.panels[blk];
    return block;
  }

  void screen(std::size_t t, std::size_t worker) {
    const Pair& pair = pairs_[t];
    std::vector<CorrHit> hits;
    scan_.scan(view(a_, pair.a_first, pair.a_count),
               view(pair.same_tile ? a_ : b_, pair.b_first, pair.b_count),
               pair.same_tile && pair.a_first == pair.b_first,
               scan_scratch_[worker], hits);
    graph_.set_bytes(pair.id, hits.size() * sizeof(CorrHit));
    completed_[t] = std::move(hits);
  }

  void drain(std::size_t t) {
    sink_(completed_[t]);
    // Not `= {}`: that assigns an empty initializer list and keeps the
    // capacity, so every drained pair's hits would stay resident.
    completed_[t] = std::vector<CorrHit>();
  }

  const ScratchFile* scratch_;
  std::size_t n_;
  std::size_t tile_;
  std::size_t block_;
  const unsigned char* valid_;
  const BlockPairScan& scan_;
  const CorrHitSink& sink_;
  TileSlots a_;
  TileSlots b_;
  std::size_t window_;
  par::JobGraph graph_;
  std::vector<CorrScanScratch> scan_scratch_;  ///< per worker
  std::vector<Read> reads_;
  std::vector<Pair> pairs_;
  std::vector<std::vector<CorrHit>> completed_;
};

/// Rows per block: \p block_rows (0 = the kernel's default), at most a
/// tile.
std::size_t block_for(std::size_t block_rows, std::size_t tile) noexcept {
  return std::min(block_rows == 0 ? kDefaultCorrBlock : block_rows, tile);
}

/// Pass 1 of both builders: every \p block-row block of every \p tile-row
/// tile of \p expression is one job of one JobGraph.  A block job copies
/// its rows one at a time straight into its tile slot at the slot's padded
/// stride (pad lanes stay zero), standardizes each in place with
/// standardized_profile_into, sets their \p valid flags and, when
/// \p scratch is set, writes them to it at that stride, so the sweep reads
/// a block back in one pread.  Tile t fills slot t % slots.size(), and a
/// block job waits only for the job that last used the same rows of its
/// slot.  With one slot holding every row (one resident tile) no job waits.
void standardize_tiles(const ExpressionMatrix& expression,
                       CorrelationMethod method, std::span<AlignedRows> slots,
                       std::size_t tile, std::size_t block,
                       unsigned char* valid, const ScratchFile* scratch,
                       par::ThreadPool* pool) {
  obs::TimelineSpan span(obs::TimelineEventKind::kStage, "standardize");
  const std::size_t n = expression.genes();
  const std::size_t s = expression.samples();
  const std::size_t stride = slots[0].stride();
  const std::size_t blocks = (std::min(tile, n) + block - 1) / block;
  par::JobGraph jobs(pool);
  std::vector<StandardizeScratch> ranks(jobs.workers());
  // Per slot and block of its rows: the job that last used them.
  std::vector<par::JobId> last(slots.size() * blocks);
  for (std::size_t first = 0, t = 0; first < n; first += tile, ++t) {
    AlignedRows* slot = &slots[t % slots.size()];
    const std::size_t count = std::min(tile, n - first);
    for (std::size_t r0 = 0; r0 < count; r0 += block) {
      const std::size_t use = (t % slots.size()) * blocks + r0 / block;
      par::JobGraph::JobSpec spec;
      spec.label = "standardize";
      if (t >= slots.size()) spec.deps = {last[use]};
      spec.run = [&, slot, first, r0, end = std::min(r0 + block, count)](
                     std::size_t worker) {
        for (std::size_t r = r0; r < end; ++r) {
          double* row = slot->row(r);
          const auto values = expression.row(first + r);
          std::copy(values.begin(), values.end(), row);
          valid[first + r] =
              standardized_profile_into(std::span<const double>(row, s),
                                        method, row, ranks[worker])
                  ? 1
                  : 0;
        }
        if (scratch != nullptr) {
          scratch->write_at((first + r0) * stride * sizeof(double),
                            slot->row(r0),
                            (end - r0) * stride * sizeof(double));
        }
      };
      last[use] = jobs.add(std::move(spec));
    }
  }
  jobs.run();
}

}  // namespace

StandardizedRows standardize_rows(const ExpressionMatrix& expression,
                                  CorrelationMethod method,
                                  par::ThreadPool* pool) {
  StandardizedRows out{AlignedRows(expression.genes(), expression.samples()),
                       std::vector<unsigned char>(expression.genes(), 0)};
  const std::size_t tile = std::max<std::size_t>(expression.genes(), 1);
  standardize_tiles(expression, method, std::span<AlignedRows>(&out.rows, 1),
                    tile, block_for(0, tile), out.valid.data(), nullptr, pool);
  return out;
}

void sweep_resident(const AlignedRows& rows, const unsigned char* valid,
                    std::size_t block_rows, const BlockPairScan& scan,
                    par::ThreadPool* pool, const CorrHitSink& sink) {
  const std::size_t tile = std::max<std::size_t>(rows.rows(), 1);
  TileSweep(nullptr, &rows, rows.rows(), rows.samples(), tile,
            block_for(block_rows, tile), valid, scan, pool, sink)
      .run();
}

TiledCorrelationResult build_correlation_gsbg(
    const ExpressionMatrix& expression, const std::string& out_path,
    const TiledCorrelationOptions& options) {
  const std::size_t n = expression.genes();
  const std::size_t s = expression.samples();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    fail(std::to_string(n) + " genes do not fit 32-bit ids");
  }
  const std::size_t tile = std::max<std::size_t>(options.tile_rows, 1);
  const std::size_t block = block_for(options.block_rows, tile);
  util::MemoryTracker& external = options.tracker != nullptr
                                      ? *options.tracker
                                      : util::global_memory_tracker();
  util::MemoryTracker tracker;  // private: its peak is the bounded-RSS proof

  TiledCorrelationResult result;
  result.genes = n;
  result.threshold_used = options.threshold;
  result.tiles = n == 0 ? 0 : (n + tile - 1) / tile;

  // The two scratch files sit beside the output.
  ScratchFile std_file(out_path + ".std");
  ScratchFile edge_file(out_path + ".edges");

  // Validity of each profile (constant rows correlate with nothing); n
  // bytes resident, the same O(n) class as the CSR offsets.
  std::vector<unsigned char> valid(n, 0);
  DualAlloc valid_bytes(tracker, external, valid.capacity(),
                        MemTag::kScratch);

  // One pool serves both parallel passes.
  const std::size_t threads = options.threads == 0
                                  ? par::ThreadPool::default_threads()
                                  : options.threads;
  std::optional<par::ThreadPool> pool;
  if (threads > 1 && n > 1) pool.emplace(threads);
  par::ThreadPool* workers = pool ? &*pool : nullptr;

  // --- pass 1: standardized rows to scratch, two tiles resident ------------
  {
    const std::size_t rows = std::min(tile, n);
    AlignedRows slots[2] = {AlignedRows(rows, s),
                            AlignedRows(n > tile ? rows : 0, s)};
    DualAlloc slot_bytes(tracker, external, slots[0].bytes() + slots[1].bytes(),
                         MemTag::kScratch);
    standardize_tiles(expression, options.method, slots, tile, block,
                      valid.data(), &std_file, workers);
  }

  // --- pass 2: every block pair on one job graph, two tiles resident -------
  // Degrees stream out of the sweep itself (counting is order-free), so
  // the spill file is read once, for the scatter, instead of twice.
  std::uint64_t edges = 0;
  std::vector<std::uint64_t> offsets(n + 1, 0);
  DualAlloc offsets_bytes(tracker, external,
                          offsets.capacity() * sizeof(std::uint64_t),
                          MemTag::kGraph);
  {
    std::vector<SpillEdge> edge_buffer;
    edge_buffer.reserve(kSpillBatch);
    DualAlloc edge_buffer_bytes(tracker, external,
                                edge_buffer.capacity() * sizeof(SpillEdge),
                                MemTag::kScratch);
    auto flush_edges = [&] {
      edge_file.append(edge_buffer.data(),
                       edge_buffer.size() * sizeof(SpillEdge));
      edge_buffer.clear();
    };
    const CorrHitSink sink = [&](const std::vector<CorrHit>& hits) {
      for (const CorrHit& h : hits) {
        edge_buffer.push_back(SpillEdge{h.u, h.v});
        ++offsets[h.u + 1];
        ++offsets[h.v + 1];
        if (edge_buffer.size() == edge_buffer.capacity()) flush_edges();
      }
      edges += hits.size();
    };
    const BlockPairScan scan(s, options.threshold);
    TileSweep sweep(&std_file, nullptr, n, s, tile, block, valid.data(), scan,
                    workers, sink);
    DualAlloc tile_bytes(tracker, external, sweep.tile_bytes(),
                         MemTag::kScratch);
    sweep.run();
    flush_edges();
    result.reorder_window_bytes = sweep.window_bytes();
  }
  result.edges = edges;

  // --- pass 3: spill -> CSR -> streaming .gsbg writer -----------------------
  // Degrees were counted in-flight above, so the spill is swept exactly
  // once here, for the scatter.
  {
    std::optional<obs::TimelineSpan> span;
    span.emplace(obs::TimelineEventKind::kStage, "csr");
    std::vector<std::uint32_t> targets(2 * edges);
    DualAlloc csr_bytes(tracker, external,
                        targets.capacity() * sizeof(std::uint32_t),
                        MemTag::kGraph);

    for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    DualAlloc cursor_bytes(tracker, external,
                           cursor.capacity() * sizeof(std::uint64_t),
                           MemTag::kScratch);
    {
      std::vector<SpillEdge> buffer(kSpillBatch);
      DualAlloc buffer_bytes(tracker, external,
                             buffer.capacity() * sizeof(SpillEdge),
                             MemTag::kScratch);
      for (std::uint64_t done = 0; done < edges;) {
        const auto count = static_cast<std::size_t>(
            std::min<std::uint64_t>(buffer.size(), edges - done));
        edge_file.read_at(done * sizeof(SpillEdge), buffer.data(),
                          count * sizeof(SpillEdge));
        for (std::size_t e = 0; e < count; ++e) {
          const SpillEdge& edge = buffer[e];
          targets[cursor[edge.u]++] = edge.v;
          targets[cursor[edge.v]++] = edge.u;
        }
        done += count;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      std::sort(targets.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
                targets.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]));
    }

    span.emplace(obs::TimelineEventKind::kStage, "gsbg-write");
    storage::write_gsbg_from_csr(n, offsets, targets, out_path);
  }

  result.peak_tracked_bytes = tracker.peak();
  return result;
}

}  // namespace gsb::bio
