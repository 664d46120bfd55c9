// Tests for the tiled out-of-core correlation builder: the edge set must be
// bit-identical to the in-memory builder's, from both an in-RAM matrix and
// an on-disk expression file, the peak resident bytes must stay bounded
// by the tile budget + output size — not by genes² — at every thread count,
// a dense threshold must not pile up more undrained hits than the sweep's
// reorder window, and an expression file whose header disagrees with its
// size must be refused before anything is sized from it.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/tiled_correlation.h"
#include "bitset/dynamic_bitset.h"
#include "obs/metrics.h"
#include "storage/mapped_graph.h"
#include "util/rng.h"

namespace gsb {
namespace {

namespace fs = std::filesystem;

class TempPath {
 public:
  explicit TempPath(const std::string& stem) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             (stem + "_" + std::to_string(counter++) + ".gsbg"))
                .string();
  }
  ~TempPath() {
    std::error_code ec;
    fs::remove(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

bio::ExpressionMatrix synthetic_expression(std::size_t genes,
                                           std::size_t samples,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  bio::MicroarrayConfig config;
  config.genes = genes;
  config.samples = samples;
  config.modules = genes / 40 + 1;
  auto data = bio::generate_microarray(config, rng);
  bio::quantile_normalize(data.expression);
  return std::move(data.expression);
}

TEST(TiledCorrelation, MatchesInMemoryBuilderEdgeForEdge) {
  for (std::uint64_t seed : {7u, 21u, 2005u}) {
    const auto expression = synthetic_expression(180, 24, seed);

    bio::CorrelationGraphOptions in_memory;
    in_memory.threshold = 0.65;
    util::Rng rng(1);
    const auto expected =
        bio::build_correlation_graph(expression, in_memory, rng);

    TempPath out("tiled");
    bio::TiledCorrelationOptions tiled;
    tiled.threshold = 0.65;
    tiled.tile_rows = 32;  // forces a multi-tile sweep
    const auto result =
        bio::build_correlation_gsbg(expression, out.path(), tiled);

    storage::MappedGraph::Options verify;
    verify.verify_checksum = true;
    const auto mapped = storage::MappedGraph::open(out.path(), verify);
    EXPECT_EQ(result.edges, expected.graph.num_edges());
    EXPECT_TRUE(mapped.load() == expected.graph) << "seed " << seed;
  }
}

TEST(TiledCorrelation, OnDiskExpressionSourceMatchesInRam) {
  // 16 samples fill whole cache lines; 20 pad to a stride of 24.  The
  // default block is the whole 25-row tile (one job per tile); 8-row blocks
  // give several jobs per tile, which at 4 threads fetch concurrently from
  // one descriptor.
  for (const std::size_t samples : {16u, 20u}) {
    const auto expression = synthetic_expression(120, samples, 77);
    TempPath matrix_file("matrix");
    bio::write_expression_binary(expression, matrix_file.path());
    bio::BinaryFileRowSource on_disk(matrix_file.path());
    ASSERT_EQ(on_disk.genes(), expression.genes());
    ASSERT_EQ(on_disk.samples(), expression.samples());

    for (const std::size_t block_rows : {0u, 8u}) {
      for (const std::size_t threads : {1u, 4u}) {
        TempPath from_ram("fromram");
        TempPath from_disk("fromdisk");
        bio::TiledCorrelationOptions options;
        options.threshold = 0.6;
        options.tile_rows = 25;  // uneven tail tile on purpose
        options.block_rows = block_rows;
        options.threads = threads;
        bio::build_correlation_gsbg(expression, from_ram.path(), options);
        bio::build_correlation_gsbg(on_disk, from_disk.path(), options);

        const auto a = storage::MappedGraph::open(from_ram.path());
        const auto b = storage::MappedGraph::open(from_disk.path());
        EXPECT_GT(a.num_edges(), 0u) << samples << " samples";
        EXPECT_TRUE(a.load() == b.load())
            << samples << " samples, " << block_rows << "-row blocks, "
            << threads << " threads";
      }
    }
  }
}

TEST(TiledCorrelation, PeakResidentBytesStayBounded) {
  // Graph 8x the tile budget: the in-memory path would standardize all
  // genes (n*s*8) and hold the full bitmap adjacency (n*n/8); the tiled
  // path must come in well under both combined, at every thread count
  // (the float panels count too).
  const std::size_t genes = 512;
  const std::size_t samples = 24;
  const std::size_t tile = 64;
  const auto expression = synthetic_expression(genes, samples, 11);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    TempPath out("bounded");
    bio::TiledCorrelationOptions options;
    options.threshold = 0.70;
    options.tile_rows = tile;
    options.threads = threads;
    const auto result =
        bio::build_correlation_gsbg(expression, out.path(), options);
    ASSERT_EQ(result.tiles, genes / tile);

    const std::size_t standardized_bytes = genes * samples * sizeof(double);
    const std::size_t bitmap_bytes =
        genes * bits::DynamicBitset::word_count(genes) * sizeof(std::uint64_t);
    const std::size_t in_memory_bytes = standardized_bytes + bitmap_bytes;

    EXPECT_GT(result.peak_tracked_bytes, 0u);
    EXPECT_LT(result.peak_tracked_bytes, in_memory_bytes / 2)
        << "tiled build is not measurably below the in-memory footprint, "
        << threads << " threads";
    // The expression-side working set specifically must be tile-sized, not
    // genes-sized: 2 tiles and their float panels + spill batch + O(n + m)
    // CSR.
    const auto mapped = storage::MappedGraph::open(out.path());
    const std::size_t csr_bytes =
        (genes + 1) * sizeof(std::uint64_t) * 2 +
        2 * mapped.num_edges() * sizeof(std::uint32_t) + genes;
    const std::size_t tile_bytes = 3 * tile * samples * sizeof(double);
    EXPECT_LT(result.peak_tracked_bytes,
              tile_bytes + csr_bytes + (1u << 16))
        << threads << " threads";
  }
}

TEST(TiledCorrelation, DenseThresholdStaysInsideReorderWindow) {
  // At |rho| >= 0 every valid pair is an edge, so block pairs finish with
  // far more hits than the sweep may hold: the graph must stop opening
  // pairs at its window instead of piling up undrained hits.
  const std::size_t genes = 300;
  const auto expression = synthetic_expression(genes, 16, 5);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const bool was_enabled = registry.enabled();
  registry.reset();
  registry.set_enabled(true);
  TempPath out("dense");
  bio::TiledCorrelationOptions options;
  options.threshold = 0.0;
  options.tile_rows = 64;
  options.block_rows = 16;
  options.threads = 4;
  const auto result =
      bio::build_correlation_gsbg(expression, out.path(), options);
  std::uint64_t pending_peak = 0;
  for (const auto& metric : registry.scrape().metrics) {
    if (metric.name == "gsb_sched_pending_peak_bytes") {
      pending_peak = metric.value;
    }
  }
  registry.set_enabled(was_enabled);
  registry.reset();

  EXPECT_EQ(result.edges, genes * (genes - 1) / 2);
  const std::size_t hit_bytes = 16;  // (u, v, corr) as the sweep holds it
  ASSERT_GT(result.reorder_window_bytes, 0u);
  EXPECT_LT(result.reorder_window_bytes, result.edges * hit_bytes / 4)
      << "the window does not bind on this input";
  EXPECT_GT(pending_peak, 0u);
  EXPECT_LE(pending_peak, result.reorder_window_bytes);
}

/// Writes a "GSBXPR01" file: the 24-byte header, then \p body_bytes zero
/// bytes.
void write_expression_file(const std::string& path, std::uint64_t genes,
                           std::uint64_t samples, std::size_t body_bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("GSBXPR01", 8);
  out.write(reinterpret_cast<const char*>(&genes), 8);
  out.write(reinterpret_cast<const char*>(&samples), 8);
  const std::string body(body_bytes, '\0');
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

void expect_header_rejected(const std::string& path) {
  try {
    bio::BinaryFileRowSource source(path);
    ADD_FAILURE() << "malformed header accepted: " << source.genes()
                  << " genes x " << source.samples() << " samples";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("tiled correlation: ", 0), 0u)
        << e.what();
  }
}

TEST(TiledCorrelation, ExpressionHeaderMustMatchFileSize) {
  TempPath path("header");
  // 2^34 genes behind a 32-byte body: accepting it would size the
  // builder's per-gene arrays (16 GiB) from the header alone.
  write_expression_file(path.path(), std::uint64_t{1} << 34, 4, 32);
  expect_header_rejected(path.path());
  // 8 genes x 2^61 samples: genes * samples * 8 wraps to 0 mod 2^64, the
  // size of the empty body.
  write_expression_file(path.path(), 8, std::uint64_t{1} << 61, 0);
  expect_header_rejected(path.path());
  // A truncated body: 10 x 4 promises 320 bytes.
  write_expression_file(path.path(), 10, 4, 300);
  expect_header_rejected(path.path());
  // A body longer than promised.
  write_expression_file(path.path(), 10, 4, 328);
  expect_header_rejected(path.path());
  // Exactly the promised body opens.
  write_expression_file(path.path(), 10, 4, 320);
  bio::BinaryFileRowSource source(path.path());
  EXPECT_EQ(source.genes(), 10u);
  EXPECT_EQ(source.samples(), 4u);
}

}  // namespace
}  // namespace gsb
