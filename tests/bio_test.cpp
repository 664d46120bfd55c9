// Tests for the microarray substrate: synthesis, normalization, rank
// correlation and thresholded graph construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "bio/correlation.h"
#include "bio/expression.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/presets.h"
#include "bio/tiled_correlation.h"
#include "storage/mapped_graph.h"
#include "test_helpers.h"
#include "util/page_allocator.h"
#include "util/rng.h"

namespace gsb::bio {
namespace {

TEST(Expression, BasicAccess) {
  ExpressionMatrix m(3, 4);
  EXPECT_EQ(m.genes(), 3u);
  EXPECT_EQ(m.samples(), 4u);
  m.at(1, 2) = 5.5;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 5.5);
  EXPECT_DOUBLE_EQ(m.row(1)[2], 5.5);
  EXPECT_EQ(m.name_of(0), "gene0");
  m.set_names({"a", "b", "c"});
  EXPECT_EQ(m.name_of(2), "c");
}

TEST(Midranks, HandlesTies) {
  const std::vector<double> values{3.0, 1.0, 3.0, 2.0};
  const auto ranks = midranks(values);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[3], 2.0);
  EXPECT_DOUBLE_EQ(ranks[0], 3.5);
  EXPECT_DOUBLE_EQ(ranks[2], 3.5);
}

/// midranks as it was before it sorted keys: an index sort compared
/// through the values.  The reference for the keyed sort.
std::vector<double> reference_midranks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return values[a] < values[b];
  });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && values[order[j]] == values[order[i]]) ++j;
    const double rank =
        (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
    for (std::size_t t = i; t < j; ++t) ranks[order[t]] = rank;
    i = j;
  }
  return ranks;
}

TEST(Midranks, MatchesIndexSortReference) {
  util::Rng rng(21);
  const double special[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::denorm_min(),
                            -std::numeric_limits<double>::denorm_min(),
                            4.9e-310,
                            -2.2e-308,
                            1.0,
                            -1.0};
  StandardizeScratch scratch;
  for (const std::size_t n : {1u, 2u, 3u, 96u, 600u}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<double> values(n);
      for (double& v : values) {
        switch (trial % 4) {
          case 0:  // distinct
            v = rng.normal();
            break;
          case 1:  // heavy ties
            v = static_cast<double>(rng.below(5)) - 2.0;
            break;
          case 2:  // zeros of both signs, infinities and subnormals
            v = rng.below(2) == 0 ? special[rng.below(10)] : rng.normal();
            break;
          default:  // all equal
            v = trial % 8 == 3 ? 7.5 : -0.0;
        }
      }
      const std::vector<double> expected = reference_midranks(values);
      midranks_into(values, scratch);
      ASSERT_EQ(scratch.ranks.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(scratch.ranks[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << "n " << n << " trial " << trial << " index " << i;
      }
      EXPECT_EQ(midranks(values), expected);
    }
  }
}

TEST(Correlation, PearsonKnownValues) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
  const std::vector<double> constant{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, constant), 0.0);
}

TEST(Correlation, SpearmanMonotoneInvariance) {
  util::Rng rng(3);
  std::vector<double> x(50);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = 0.8 * x[i] + 0.2 * rng.normal();
  }
  const double rho = spearman(x, y);
  // Monotone transform of x leaves Spearman unchanged.
  std::vector<double> ex(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ex[i] = std::exp(x[i]);
  EXPECT_NEAR(spearman(ex, y), rho, 1e-9);
  // Pearson, by contrast, moves.
  EXPECT_GT(std::fabs(pearson(ex, y) - pearson(x, y)), 1e-3);
}

// A constant profile has no correlation.  Its mean fl(sum)/n need not
// round back to the value (0.1, 7.3 and 1/3 at these sample counts leave
// a uniform residue), so standardization must catch it before the mean.
TEST(Correlation, ConstantRowsAreInvalidUnderPearson) {
  util::Rng rng(31);
  test::TempFile container("constant_rows");
  for (const std::size_t samples : {60u, 96u, 97u}) {
    for (const double value : {0.1, 7.3, 1.0 / 3.0}) {
      const std::string label =
          std::to_string(value) + " at " + std::to_string(samples);
      const std::vector<double> constant(samples, value);
      std::vector<double> out(samples, 1.0);
      StandardizeScratch scratch;
      EXPECT_FALSE(standardized_profile_into(
          constant, CorrelationMethod::kPearson, out.data(), scratch))
          << label;
      EXPECT_EQ(out, std::vector<double>(samples, 0.0)) << label;

      // Rows 0 and 1 are the constant; rows 2-5 are noise.
      ExpressionMatrix expression(6, samples);
      for (std::size_t g = 0; g < expression.genes(); ++g) {
        for (std::size_t k = 0; k < samples; ++k) {
          expression.at(g, k) = g < 2 ? value : rng.normal();
        }
      }
      CorrelationGraphOptions options;
      options.method = CorrelationMethod::kPearson;
      options.threshold = 0.5;
      const auto in_memory = build_correlation_graph(expression, options, rng);
      EXPECT_EQ(in_memory.graph.degree(0), 0u) << label;
      EXPECT_EQ(in_memory.graph.degree(1), 0u) << label;

      TiledCorrelationOptions tiled;
      tiled.method = CorrelationMethod::kPearson;
      tiled.threshold = 0.5;
      build_correlation_gsbg(expression, container.path(), tiled);
      const auto mapped = storage::MappedGraph::open(container.path());
      EXPECT_EQ(mapped.degree(0), 0u) << label;
      EXPECT_EQ(mapped.degree(1), 0u) << label;
    }
  }
}

// Matrix buffers sit on their own zero-filled pages (util::PageArray).
TEST(PageBuffers, ZeroFilledAlignedAndCopyable) {
  util::Rng rng(5);
  ExpressionMatrix matrix(300, 97);
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    for (const double v : matrix.row(g)) ASSERT_EQ(v, 0.0);
    for (double& v : matrix.row(g)) v = rng.normal();
  }
  const ExpressionMatrix copy = matrix;
  ASSERT_EQ(copy.genes(), matrix.genes());
  ASSERT_EQ(copy.samples(), matrix.samples());
  for (std::size_t g = 0; g < matrix.genes(); ++g) {
    EXPECT_TRUE(std::ranges::equal(copy.row(g), matrix.row(g))) << g;
  }

  AlignedRows rows(130, 60);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rows.row(r)) %
                  AlignedRows::kAlignment,
              0u)
        << r;
    for (std::size_t k = 0; k < rows.stride(); ++k) {
      ASSERT_EQ(rows.row(r)[k], 0.0) << r;
    }
    for (std::size_t k = 0; k < rows.samples(); ++k) {
      rows.row(r)[k] = rng.normal();
    }
  }
  const AlignedRows rows_copy = rows;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    EXPECT_TRUE(std::equal(rows.row(r), rows.row(r) + rows.stride(),
                           rows_copy.row(r)))
        << r;
  }

  util::PageArray<std::uint64_t> words(1000);
  EXPECT_EQ(std::count(words.begin(), words.end(), 0u), 1000);
}

#if defined(__linux__)
/// This process's resident set, from /proc/self/status.
std::size_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      std::size_t kib = 0;
      status >> kib;
      return kib * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

/// Keeps a heap block observable, so the allocation is not elided.
void* volatile heap_sink = nullptr;
#endif

// A freed matrix goes back to the kernel, also once glibc has raised its
// dynamic mmap threshold (here to 5 MB, by freeing a block that size),
// below which it would place a matrix on the brk heap: there, with a live
// block above it, the freed matrix stays resident.
TEST(PageBuffers, FreedMatrixLeavesNoResidentPages) {
#if !defined(__linux__)
  GTEST_SKIP() << "reads /proc/self/status";
#else
  if (!util::page_backed()) GTEST_SKIP() << "buffers come from the heap";
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  constexpr std::size_t kSamples = 96;
  heap_sink = std::malloc(5 * kMiB);
  std::memset(heap_sink, 1, 5 * kMiB);
  std::free(heap_sink);
  const std::size_t baseline = resident_bytes();
  for (const std::size_t bytes : {64 * kMiB, 4 * kMiB}) {
    auto matrix = std::make_unique<ExpressionMatrix>(
        bytes / (kSamples * sizeof(double)), kSamples);
    for (std::size_t g = 0; g < matrix->genes(); ++g) {
      for (double& v : matrix->row(g)) v = 1.0;
    }
    EXPECT_GE(resident_bytes(), baseline + bytes - kMiB) << bytes;
    std::vector<char> live_above(4096, 1);
    heap_sink = live_above.data();
    matrix.reset();
    EXPECT_LE(resident_bytes(), baseline + 2 * kMiB) << bytes;
  }
#endif
}

TEST(Normalize, ZscoreRows) {
  util::Rng rng(7);
  ExpressionMatrix m(5, 30);
  for (std::size_t g = 0; g < 5; ++g) {
    for (std::size_t s = 0; s < 30; ++s) {
      m.at(g, s) = rng.normal(10.0 * static_cast<double>(g), 3.0);
    }
  }
  zscore_rows(m);
  for (std::size_t g = 0; g < 5; ++g) {
    const auto row = m.row(g);
    const double mean =
        std::accumulate(row.begin(), row.end(), 0.0) / 30.0;
    double ss = 0;
    for (double v : row) ss += (v - mean) * (v - mean);
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(std::sqrt(ss / 29.0), 1.0, 1e-9);
  }
}

TEST(Normalize, ZscoreConstantRowBecomesZero) {
  ExpressionMatrix m(1, 4);
  for (std::size_t s = 0; s < 4; ++s) m.at(0, s) = 7.0;
  zscore_rows(m);
  for (double v : m.row(0)) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Normalize, QuantileMakesSampleDistributionsEqual) {
  util::Rng rng(9);
  ExpressionMatrix m(40, 6);
  for (std::size_t g = 0; g < 40; ++g) {
    for (std::size_t s = 0; s < 6; ++s) {
      m.at(g, s) = rng.normal(static_cast<double>(s), 1.0 + s);
    }
  }
  quantile_normalize(m);
  // After normalization every column has the same sorted values.
  std::vector<double> reference;
  for (std::size_t g = 0; g < 40; ++g) reference.push_back(m.at(g, 0));
  std::sort(reference.begin(), reference.end());
  for (std::size_t s = 1; s < 6; ++s) {
    std::vector<double> column;
    for (std::size_t g = 0; g < 40; ++g) column.push_back(m.at(g, s));
    std::sort(column.begin(), column.end());
    for (std::size_t g = 0; g < 40; ++g) {
      EXPECT_NEAR(column[g], reference[g], 1e-9);
    }
  }
}

TEST(Normalize, QuantileTiesGetTheMeanOfTheirQuantiles) {
  // Column 0 has no tie, column 1 is one tie group, column 2 has two tie
  // groups ({1, 3} on ranks 0-1, {0, 2} on ranks 2-3) and a singleton.
  ExpressionMatrix m(5, 3);
  const double column2[5] = {2.0, 1.0, 2.0, 1.0, 3.0};
  for (std::size_t g = 0; g < 5; ++g) {
    m.at(g, 0) = 10.0 * static_cast<double>(g + 1);
    m.at(g, 1) = 7.0;
    m.at(g, 2) = column2[g];
  }
  // Mean across columns of each rank's value.
  const double reference[5] = {(10.0 + 7.0 + 1.0) / 3.0,
                               (20.0 + 7.0 + 1.0) / 3.0,
                               (30.0 + 7.0 + 2.0) / 3.0,
                               (40.0 + 7.0 + 2.0) / 3.0,
                               (50.0 + 7.0 + 3.0) / 3.0};
  quantile_normalize(m);
  for (std::size_t g = 0; g < 5; ++g) {
    EXPECT_NEAR(m.at(g, 0), reference[g], 1e-12) << "gene " << g;
  }
  const double all =
      std::accumulate(std::begin(reference), std::end(reference), 0.0) / 5.0;
  for (std::size_t g = 0; g < 5; ++g) {
    EXPECT_NEAR(m.at(g, 1), all, 1e-12) << "gene " << g;
    EXPECT_EQ(m.at(g, 1), m.at(0, 1)) << "gene " << g;
  }
  EXPECT_NEAR(m.at(1, 2), (reference[0] + reference[1]) / 2.0, 1e-12);
  EXPECT_EQ(m.at(3, 2), m.at(1, 2));
  EXPECT_NEAR(m.at(0, 2), (reference[2] + reference[3]) / 2.0, 1e-12);
  EXPECT_EQ(m.at(2, 2), m.at(0, 2));
  EXPECT_NEAR(m.at(4, 2), reference[4], 1e-12);
}

TEST(Normalize, QuantileMatchesSortReference) {
  // The radix-sorted normalization must equal the comparison-sort body it
  // replaced bit for bit: ties (also across -0.0 and +0.0), negatives,
  // subnormals and infinities, and the one-gene and one-sample shapes.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double special[] = {-0.0,    0.0,    -2.5,   1.0,     3.25,
                            5e-324,  -5e-324, 2.2e-310, -1e-315, kInf,
                            -kInf,   1e300,  -1e300, 0.1};
  util::Rng rng(2024);
  auto cell = [&](double tie_share) {
    if (rng.uniform() < tie_share) {
      return special[rng.below(std::size(special))];
    }
    return rng.normal(0.0, 3.0);
  };
  struct Case {
    std::string name;
    ExpressionMatrix matrix;
  };
  std::vector<Case> cases;
  for (const auto& [genes, samples, tie_share] :
       {std::tuple{300u, 7u, 0.5}, std::tuple{1u, 5u, 0.5},
        std::tuple{50u, 1u, 0.5}, std::tuple{200u, 4u, 0.0},
        std::tuple{64u, 3u, 1.0}, std::tuple{1u, 1u, 0.0}}) {
    ExpressionMatrix m(genes, samples);
    for (std::size_t g = 0; g < genes; ++g) {
      for (std::size_t s = 0; s < samples; ++s) m.at(g, s) = cell(tie_share);
    }
    cases.push_back({std::to_string(genes) + " x " + std::to_string(samples) +
                         " ties " + std::to_string(tie_share),
                     std::move(m)});
  }
  // Columns of one repeated value, of zeros of both signs, and of five
  // repeated levels.
  ExpressionMatrix flat(40, 3);
  for (std::size_t g = 0; g < 40; ++g) {
    flat.at(g, 0) = 4.5;
    flat.at(g, 1) = g % 2 == 0 ? 0.0 : -0.0;
    flat.at(g, 2) = static_cast<double>(g % 5) - 2.0;
  }
  cases.push_back({"flat columns", std::move(flat)});

  for (auto& [name, matrix] : cases) {
    ExpressionMatrix expected = matrix;
    test::reference_quantile_normalize(expected);
    quantile_normalize(matrix);
    for (std::size_t g = 0; g < matrix.genes(); ++g) {
      EXPECT_EQ(std::memcmp(matrix.row(g).data(), expected.row(g).data(),
                            matrix.samples() * sizeof(double)),
                0)
          << name << ", gene " << g;
    }
  }
}

TEST(Normalize, Log2TransformPositive) {
  ExpressionMatrix m(1, 3);
  m.at(0, 0) = -5.0;
  m.at(0, 1) = 0.0;
  m.at(0, 2) = 3.0;
  log2_transform(m);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_NEAR(m.at(0, 1), std::log2(6.0), 1e-12);
  EXPECT_NEAR(m.at(0, 2), std::log2(9.0), 1e-12);
}

TEST(Generator, ShapesAndGroundTruth) {
  util::Rng rng(11);
  MicroarrayConfig config;
  config.genes = 100;
  config.samples = 25;
  config.modules = 6;
  config.min_module_size = 4;
  config.max_module_size = 12;
  const auto data = generate_microarray(config, rng);
  EXPECT_EQ(data.expression.genes(), 100u);
  EXPECT_EQ(data.expression.samples(), 25u);
  ASSERT_EQ(data.modules.size(), 6u);
  EXPECT_EQ(data.modules[0].size(), 12u);
  for (const auto& module : data.modules) {
    EXPECT_GE(module.size(), 4u);
    EXPECT_LE(module.size(), 12u);
  }
  EXPECT_EQ(data.expression.name_of(3), "probe_3");
}

TEST(Generator, WithinModuleCorrelationIsHigh) {
  util::Rng rng(13);
  MicroarrayConfig config;
  config.genes = 60;
  config.samples = 60;
  config.modules = 2;
  config.min_module_size = 10;
  config.max_module_size = 10;
  config.overlap = 0.0;
  config.within_module_corr = 0.9;
  const auto data = generate_microarray(config, rng);
  const auto& module = data.modules[0];
  double total = 0;
  int pairs = 0;
  for (std::size_t i = 0; i < module.size(); ++i) {
    for (std::size_t j = i + 1; j < module.size(); ++j) {
      total += pearson(data.expression.row(module[i]),
                       data.expression.row(module[j]));
      ++pairs;
    }
  }
  EXPECT_GT(total / pairs, 0.7);
}

TEST(CorrelationGraph, RecoversModules) {
  util::Rng rng(17);
  MicroarrayConfig config;
  config.genes = 120;
  config.samples = 80;
  config.modules = 3;
  config.min_module_size = 8;
  config.max_module_size = 8;
  config.overlap = 0.0;
  config.within_module_corr = 0.95;
  const auto data = generate_microarray(config, rng);

  CorrelationGraphOptions options;
  options.method = CorrelationMethod::kSpearman;
  options.threshold = 0.7;
  const auto result = build_correlation_graph(data.expression, options, rng);
  // Within-module edges should dominate: check module 0 forms a near-clique.
  const auto& module = data.modules[0];
  std::size_t present = 0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < module.size(); ++i) {
    for (std::size_t j = i + 1; j < module.size(); ++j) {
      ++pairs;
      present += result.graph.has_edge(module[i], module[j]);
    }
  }
  EXPECT_GE(present, pairs - 2);
  // Background density stays tiny.
  EXPECT_LT(result.graph.density(), 0.05);
}

TEST(CorrelationGraph, TargetEdgesApproximatelyHit) {
  util::Rng rng(19);
  MicroarrayConfig config;
  config.genes = 150;
  config.samples = 40;
  config.modules = 8;
  const auto data = generate_microarray(config, rng);
  CorrelationGraphOptions options;
  options.target_edges = 400;
  const auto result = build_correlation_graph(data.expression, options, rng);
  EXPECT_GT(result.threshold_used, 0.0);
  EXPECT_GT(result.graph.num_edges(), 150u);
  EXPECT_LT(result.graph.num_edges(), 1000u);
}

TEST(Presets, SpecsMatchPaperAtFullScale) {
  const auto sparse = paper_spec(PaperDataset::kBrainSparse, 1.0);
  EXPECT_EQ(sparse.vertices, 12422u);
  EXPECT_EQ(sparse.edges, 6151u);
  EXPECT_EQ(sparse.max_clique, 17u);
  EXPECT_NEAR(sparse.edge_density, 0.00008, 0.00002);

  const auto dense = paper_spec(PaperDataset::kBrainDense, 1.0);
  EXPECT_EQ(dense.edges, 229297u);
  EXPECT_EQ(dense.max_clique, 110u);

  const auto myo = paper_spec(PaperDataset::kMyogenic, 1.0);
  EXPECT_EQ(myo.vertices, 2895u);
  EXPECT_EQ(myo.edges, 10914u);
  EXPECT_EQ(myo.max_clique, 28u);
  EXPECT_NEAR(myo.edge_density, 0.0026, 0.001);
}

TEST(Presets, ScalingPreservesCliqueAndShrinksCounts) {
  const auto full = paper_spec(PaperDataset::kMyogenic, 1.0);
  const auto half = paper_spec(PaperDataset::kMyogenic, 0.5);
  EXPECT_EQ(half.max_clique, full.max_clique);
  EXPECT_NEAR(static_cast<double>(half.vertices),
              static_cast<double>(full.vertices) / 2.0, 2.0);
  EXPECT_NEAR(static_cast<double>(half.edges),
              static_cast<double>(full.edges) / 2.0, 2.0);
}

TEST(Presets, GeneratedGraphMatchesSpec) {
  util::Rng rng(23);
  const double scale = 0.15;
  const auto spec = paper_spec(PaperDataset::kMyogenic, scale);
  const auto mg = make_paper_graph(PaperDataset::kMyogenic, scale, rng);
  EXPECT_EQ(mg.graph.order(), spec.vertices);
  EXPECT_NEAR(static_cast<double>(mg.graph.num_edges()),
              static_cast<double>(spec.edges),
              static_cast<double>(spec.edges) * 0.15);
  EXPECT_EQ(mg.modules[0].size(), spec.max_clique);
}

}  // namespace
}  // namespace gsb::bio
