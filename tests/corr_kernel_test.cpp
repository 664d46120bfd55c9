// Tests for the shared blocked correlation kernel: the one-tile standardize
// pass must equal standardized_profile_into row by row at every thread
// count, the blocked block product must be bit-identical to the scalar
// profile_dot reference on randomized inputs, the screened sweep over
// resident rows must emit exactly the scalar reference's (u, v, corr)
// sequence — also with the threshold on a realized correlation, on every
// integer screen body, and for cross pairs swept as two row sets stacked
// into one — and the same sequence at every thread count and block size,
// every screen body must list the same candidates, the screen's margin
// must bound its error, the in-memory builder's graph must be invariant
// under --threads, and the tiled builder's .gsbg output must be
// byte-identical across thread counts — for Pearson and Spearman alike.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <limits>
#include <optional>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "bio/corr_kernel.h"
#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/tiled_correlation.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
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

std::vector<char> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

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

using Edge = std::tuple<std::uint32_t, std::uint32_t, double>;

std::vector<Edge> sweep_edges(const bio::StandardizedRows& rows,
                              double threshold, std::size_t block,
                              par::ThreadPool* pool) {
  std::vector<Edge> edges;
  bio::sweep_resident(rows.rows, rows.valid.data(), block,
                      bio::BlockPairScan(rows.rows.samples(), threshold),
                      pool, [&](const std::vector<bio::CorrHit>& hits) {
                        for (const bio::CorrHit& h : hits) {
                          edges.emplace_back(h.u, h.v, h.corr);
                        }
                      });
  return edges;
}

/// (u, v, bit pattern of corr): compared bitwise, so not even the sign of
/// a zero may differ.
using BitEdge = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

/// The scalar reference of the sweep: profile_dot over every valid pair
/// i < j, visited in the sweep's (block pair, i, j) emission order.
std::vector<BitEdge> reference_sweep(const bio::AlignedRows& rows,
                                     const unsigned char* valid,
                                     double threshold, std::size_t block) {
  const std::size_t n = rows.rows();
  std::vector<BitEdge> out;
  for (std::size_t i0 = 0; i0 < n; i0 += block) {
    for (std::size_t j0 = i0; j0 < n; j0 += block) {
      for (std::size_t i = i0; i < std::min(n, i0 + block); ++i) {
        if (valid[i] == 0) continue;
        for (std::size_t j = j0 == i0 ? i + 1 : j0;
             j < std::min(n, j0 + block); ++j) {
          if (valid[j] == 0) continue;
          const double corr =
              bio::profile_dot(rows.row(i), rows.row(j), rows.samples());
          if (std::fabs(corr) >= threshold) {
            out.emplace_back(static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j),
                             std::bit_cast<std::uint64_t>(corr));
          }
        }
      }
    }
  }
  return out;
}

std::vector<BitEdge> screened_sweep(bio::detail::ScreenKernel kernel,
                                    const bio::StandardizedRows& rows,
                                    double threshold, std::size_t block,
                                    par::ThreadPool* pool) {
  std::vector<BitEdge> out;
  bio::sweep_resident(
      rows.rows, rows.valid.data(), block,
      bio::BlockPairScan(rows.rows.samples(), threshold, kernel), pool,
      [&](const std::vector<bio::CorrHit>& hits) {
        for (const bio::CorrHit& h : hits) {
          out.emplace_back(h.u, h.v, std::bit_cast<std::uint64_t>(h.corr));
        }
      });
  return out;
}

/// \p a's rows, then \p b's when \p b is not null, with their validity
/// (null: every row valid): a cross sweep's two row sets stacked into one.
bio::StandardizedRows stack_rows(const bio::AlignedRows& a,
                                 const unsigned char* a_valid,
                                 const bio::AlignedRows* b,
                                 const unsigned char* b_valid) {
  bio::StandardizedRows out{
      bio::AlignedRows(a.rows() + (b == nullptr ? 0 : b->rows()),
                       a.samples()),
      {}};
  auto append = [&](const bio::AlignedRows& rows, const unsigned char* valid) {
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      std::copy_n(rows.row(r), rows.samples(), out.rows.row(out.valid.size()));
      out.valid.push_back(valid == nullptr ? 1 : valid[r]);
    }
  };
  append(a, a_valid);
  if (b != nullptr) append(*b, b_valid);
  return out;
}

std::vector<bio::detail::ScreenKernel> available_screen_kernels() {
  std::vector<bio::detail::ScreenKernel> kernels;
  for (const auto kernel : {bio::detail::ScreenKernel::kVector128,
                            bio::detail::ScreenKernel::kAvx2,
                            bio::detail::ScreenKernel::kAvxVnni,
                            bio::detail::ScreenKernel::kAvx512Vnni}) {
    if (bio::detail::screen_kernel_available(kernel)) kernels.push_back(kernel);
  }
  return kernels;
}

/// Thresholds 0 and 1, and three realized |corr| values of the valid
/// (a_i, b_j) pairs (j > i when \p diagonal), each also one ulp below and
/// above.
std::vector<double> edge_case_thresholds(const bio::AlignedRows& a,
                                         const unsigned char* a_valid,
                                         const bio::AlignedRows& b,
                                         const unsigned char* b_valid,
                                         bool diagonal) {
  std::vector<double> realized;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (a_valid != nullptr && a_valid[i] == 0) continue;
    for (std::size_t j = diagonal ? i + 1 : 0; j < b.rows(); ++j) {
      if (b_valid != nullptr && b_valid[j] == 0) continue;
      const double corr =
          std::fabs(bio::profile_dot(a.row(i), b.row(j), a.samples()));
      if (std::isfinite(corr)) realized.push_back(corr);
    }
  }
  std::vector<double> thresholds = {0.0, 1.0};
  if (realized.empty()) return thresholds;
  std::sort(realized.begin(), realized.end());
  for (const double q : {0.5, 0.99, 0.9995}) {
    const double r = realized[static_cast<std::size_t>(
        q * static_cast<double>(realized.size() - 1))];
    thresholds.push_back(std::nextafter(r, 0.0));
    thresholds.push_back(r);
    thresholds.push_back(std::nextafter(r, 2.0 * r + 1.0));
  }
  return thresholds;
}

/// Runs every available screen body at 1 and 3 threads over \p a's rows,
/// stacked with \p b's when \p b is not null, at each edge-case threshold
/// of the (a, b) pairs (of a's own pairs when \p b is null) and expects
/// the scalar reference's exact sequence.
void expect_screened_exact(const bio::AlignedRows& a,
                           const unsigned char* a_valid,
                           const bio::AlignedRows* b,
                           const unsigned char* b_valid,
                           const std::string& label) {
  par::ThreadPool pool(3);
  const bio::StandardizedRows swept = stack_rows(a, a_valid, b, b_valid);
  for (const double threshold :
       b == nullptr ? edge_case_thresholds(a, a_valid, a, a_valid, true)
                    : edge_case_thresholds(a, a_valid, *b, b_valid, false)) {
    for (const std::size_t block : {5u, 64u}) {
      const auto expected =
          reference_sweep(swept.rows, swept.valid.data(), threshold, block);
      for (const auto kernel : available_screen_kernels()) {
        for (par::ThreadPool* p : {static_cast<par::ThreadPool*>(nullptr),
                                   &pool}) {
          EXPECT_EQ(screened_sweep(kernel, swept, threshold, block, p),
                    expected)
              << label << " threshold " << std::hexfloat << threshold
              << std::defaultfloat << " block " << block << " kernel "
              << bio::detail::screen_kernel_name(kernel) << " threads "
              << (p == nullptr ? 1 : 3);
        }
      }
    }
  }
}

TEST(CorrKernel, StandardizePassMatchesPerRowReference) {
  // Pass 1 on one resident tile (128-row block jobs) against
  // standardized_profile_into on each row: bitwise equal values, zero pad
  // lanes, and the constant rows below (rows 11 and 13-15, every row at one
  // sample) invalid and all-zero.  60 and 97 samples pad the stride, 96
  // does not; 130 and 300 genes end in a partial block.
  par::ThreadPool two(2);
  par::ThreadPool four(4);
  util::Rng rng(500);
  const std::map<std::size_t, double> constants = {
      {11, 4.0}, {13, 0.1}, {14, 7.3}, {15, 1.0 / 3.0}};
  for (const std::size_t samples : {1u, 3u, 60u, 96u, 97u}) {
    for (const std::size_t genes : {1u, 130u, 300u}) {
      // Normal draws have no ties; row 12 is all ties (two values), for
      // the midranks.
      bio::ExpressionMatrix expression(genes, samples);
      for (std::size_t g = 0; g < genes; ++g) {
        const auto constant = constants.find(g);
        for (std::size_t k = 0; k < samples; ++k) {
          expression.at(g, k) = constant != constants.end() ? constant->second
                                : g == 12 ? static_cast<double>(k % 2)
                                          : rng.normal();
        }
      }
      for (const auto method : {bio::CorrelationMethod::kPearson,
                                bio::CorrelationMethod::kSpearman}) {
        bio::StandardizeScratch scratch;
        std::vector<double> profile;
        for (par::ThreadPool* pool :
             {static_cast<par::ThreadPool*>(nullptr), &two, &four}) {
          const std::string label =
              std::to_string(samples) + " samples, " + std::to_string(genes) +
              " genes, method " + std::to_string(static_cast<int>(method)) +
              ", " + std::to_string(pool == nullptr ? 1 : pool->size()) +
              " threads";
          const auto rows = bio::standardize_rows(expression, method, pool);
          ASSERT_EQ(rows.rows.rows(), genes) << label;
          ASSERT_EQ(rows.valid.size(), genes) << label;
          for (std::size_t g = 0; g < genes; ++g) {
            // The reference row at the pass's stride, pad lanes +0.0.
            profile.assign(rows.rows.stride(), 0.0);
            const bool valid = bio::standardized_profile_into(
                expression.row(g), method, profile.data(), scratch);
            const bool constant = samples == 1 || constants.contains(g);
            EXPECT_EQ(valid, !constant) << label << ", row " << g;
            EXPECT_EQ(rows.valid[g], constant ? 0 : 1)
                << label << ", row " << g;
            std::vector<std::uint64_t> expected;
            std::vector<std::uint64_t> got;
            for (std::size_t k = 0; k < rows.rows.stride(); ++k) {
              expected.push_back(std::bit_cast<std::uint64_t>(profile[k]));
              got.push_back(std::bit_cast<std::uint64_t>(rows.rows.row(g)[k]));
            }
            EXPECT_EQ(got, expected) << label << ", row " << g;
            if (constant) {
              EXPECT_EQ(got, std::vector<std::uint64_t>(got.size(), 0))
                  << label << ", row " << g;
            }
          }
        }
      }
    }
  }
}

TEST(CorrKernel, BlockedBlockMatchesScalarDotBitwise) {
  util::Rng rng(99);
  std::vector<double> out;
  std::vector<double> scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t a_count = 1 + static_cast<std::size_t>(rng.below(21));
    const std::size_t b_count = 1 + static_cast<std::size_t>(rng.below(27));
    const std::size_t samples = 1 + static_cast<std::size_t>(rng.below(70));
    bio::AlignedRows a(a_count, samples);
    bio::AlignedRows b(b_count, samples);
    EXPECT_EQ(a.stride() % bio::AlignedRows::kAlignDoubles, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.row(0)) %
                  bio::AlignedRows::kAlignment,
              0u);
    for (std::size_t i = 0; i < a_count; ++i) {
      for (std::size_t k = 0; k < samples; ++k) a.row(i)[k] = rng.normal();
    }
    for (std::size_t j = 0; j < b_count; ++j) {
      for (std::size_t k = 0; k < samples; ++k) b.row(j)[k] = rng.normal();
    }
    out.assign(a_count * b_count, 0.0);
    bio::correlation_block(a.row(0), a_count, b.row(0), b_count, samples,
                           a.stride(), b.stride(), out.data(), b_count,
                           scratch);
    for (std::size_t i = 0; i < a_count; ++i) {
      for (std::size_t j = 0; j < b_count; ++j) {
        const double reference =
            bio::profile_dot(a.row(i), b.row(j), samples);
        // Exact equality: the kernel accumulates every pair in the scalar
        // reference order, so not even the last ulp may differ.
        EXPECT_EQ(out[i * b_count + j], reference)
            << "trial " << trial << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(CorrKernel, SweepSequenceInvariantAcrossThreadsAndBlocks) {
  const auto expression = synthetic_expression(150, 24, 31);
  for (const auto method : {bio::CorrelationMethod::kPearson,
                            bio::CorrelationMethod::kSpearman}) {
    const auto rows = bio::standardize_rows(expression, method, nullptr);
    const std::size_t n = expression.genes();
    for (const double threshold : {0.5, 0.7, 0.85}) {
      // Scalar reference: plain double loop over the upper triangle.
      std::vector<Edge> reference;
      for (std::size_t i = 0; i < n; ++i) {
        if (rows.valid[i] == 0) continue;
        for (std::size_t j = i + 1; j < n; ++j) {
          if (rows.valid[j] == 0) continue;
          const double corr = bio::profile_dot(
              rows.rows.row(i), rows.rows.row(j), expression.samples());
          if (std::fabs(corr) >= threshold) {
            reference.emplace_back(static_cast<std::uint32_t>(i),
                                   static_cast<std::uint32_t>(j), corr);
          }
        }
      }
      ASSERT_FALSE(reference.empty());

      const auto baseline = sweep_edges(rows, threshold, 32, nullptr);
      // Same pairs and bit-identical correlations as the scalar loop
      // (emission order differs: block pairs vs rows).
      auto sorted = baseline;
      std::sort(sorted.begin(), sorted.end());
      auto expected = reference;
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(sorted, expected);

      for (const std::size_t threads : {2u, 4u, 8u}) {
        par::ThreadPool pool(threads);
        EXPECT_EQ(sweep_edges(rows, threshold, 32, &pool), baseline)
            << threads << " threads";
      }
      for (const std::size_t block : {8u, 64u, 1024u}) {
        auto other = sweep_edges(rows, threshold, block, nullptr);
        std::sort(other.begin(), other.end());
        EXPECT_EQ(other, expected) << "block " << block;
      }
    }
  }
}

TEST(CorrKernel, InMemoryGraphInvariantAcrossThreadCounts) {
  const auto expression = synthetic_expression(160, 20, 47);
  for (const auto method : {bio::CorrelationMethod::kPearson,
                            bio::CorrelationMethod::kSpearman}) {
    bio::CorrelationGraphOptions options;
    options.method = method;
    options.threshold = 0.6;
    options.threads = 1;
    util::Rng rng(1);
    const auto baseline =
        bio::build_correlation_graph(expression, options, rng);
    EXPECT_GT(baseline.graph.num_edges(), 0u);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      options.threads = threads;
      options.corr_block = 16;  // force many blocks per round
      util::Rng thread_rng(1);
      const auto built =
          bio::build_correlation_graph(expression, options, thread_rng);
      EXPECT_TRUE(built.graph == baseline.graph)
          << threads << " threads, method "
          << (method == bio::CorrelationMethod::kPearson ? "pearson"
                                                         : "spearman");
    }
  }
}

TEST(CorrKernel, TiledGsbgByteIdenticalAcrossThreadCounts) {
  const auto expression = synthetic_expression(200, 24, 53);
  for (const auto method : {bio::CorrelationMethod::kPearson,
                            bio::CorrelationMethod::kSpearman}) {
    // The in-memory builder's graph, which every container must hold.
    bio::CorrelationGraphOptions in_memory;
    in_memory.method = method;
    in_memory.threshold = 0.6;
    in_memory.threads = 4;
    util::Rng rng(1);
    const auto expected =
        bio::build_correlation_graph(expression, in_memory, rng);

    // 48: multi-tile sweep with a ragged tail; 37: tiles that are not a
    // whole number of 16-row blocks; 200: the whole input in one tile.
    for (const std::size_t tile_rows : {48u, 37u, 200u}) {
      bio::TiledCorrelationOptions options;
      options.method = method;
      options.threshold = 0.6;
      options.tile_rows = tile_rows;
      options.block_rows = 16;  // multiple blocks per tile pair
      options.threads = 1;
      TempPath baseline_path("corr_threads1");
      bio::build_correlation_gsbg(expression, baseline_path.path(), options);
      const auto baseline_bytes = read_file_bytes(baseline_path.path());
      ASSERT_FALSE(baseline_bytes.empty());

      for (const std::size_t threads : {2u, 4u, 8u}) {
        options.threads = threads;
        TempPath path("corr_threadsN");
        bio::build_correlation_gsbg(expression, path.path(), options);
        EXPECT_EQ(read_file_bytes(path.path()), baseline_bytes)
            << threads << " threads, " << tile_rows << "-row tiles";
      }

      // And the mapped edge set equals the in-memory builder's graph.
      const auto mapped = storage::MappedGraph::open(baseline_path.path());
      EXPECT_TRUE(mapped.load() == expected.graph)
          << tile_rows << "-row tiles";
    }
  }
}

TEST(CorrKernel, ScreenedSweepExactAtTheThreshold) {
  ASSERT_FALSE(available_screen_kernels().empty());

  // Standardized profiles, with a duplicated, a negated and a constant row,
  // in memory on every screen body and through the tiled builder.  Sample
  // counts pad to 4-sample groups in every way.
  for (const std::size_t samples : {1u, 2u, 3u, 5u, 96u, 97u, 600u}) {
    const std::size_t genes = samples >= 96 ? 70 : 90;
    auto expression = synthetic_expression(genes, samples, 100 + samples);
    for (std::size_t k = 0; k < samples; ++k) {
      expression.at(5, k) = expression.at(3, k);
      expression.at(9, k) = -expression.at(3, k);
      expression.at(11, k) = 4.0;
    }
    for (const auto method : {bio::CorrelationMethod::kPearson,
                              bio::CorrelationMethod::kSpearman}) {
      const std::string label =
          std::to_string(samples) + " samples, method " +
          std::to_string(static_cast<int>(method));
      const auto rows = bio::standardize_rows(expression, method, nullptr);
      const unsigned char* valid = rows.valid.data();
      expect_screened_exact(rows.rows, valid, nullptr, nullptr, label);

      for (const double threshold :
           edge_case_thresholds(rows.rows, valid, rows.rows, valid, true)) {
        graph::Graph expected(genes);
        for (const auto& [u, v, bits] :
             reference_sweep(rows.rows, valid, threshold, genes)) {
          expected.add_edge(u, v);
        }
        for (const std::size_t tile_rows : {25u, 64u}) {
          for (const std::size_t threads : {1u, 3u}) {
            bio::TiledCorrelationOptions options;
            options.method = method;
            options.threshold = threshold;
            options.tile_rows = tile_rows;
            options.block_rows = 16;
            options.threads = threads;
            TempPath path("corr_screen");
            bio::build_correlation_gsbg(expression, path.path(), options);
            EXPECT_TRUE(storage::MappedGraph::open(path.path()).load() ==
                        expected)
                << label << " tiled " << tile_rows << " rows, " << threads
                << " threads, threshold " << std::hexfloat << threshold;
          }
        }
      }
    }
  }

  // Raw rows through the resident sweep: norms far from 1, float subnormal
  // products, double subnormal entries, entries past float range and a NaN
  // row.
  util::Rng rng(4242);
  auto fill = [&](bio::AlignedRows& rows, double scale) {
    for (std::size_t i = 0; i < rows.rows(); ++i) {
      for (std::size_t k = 0; k < rows.samples(); ++k) {
        rows.row(i)[k] = scale * rng.normal();
      }
    }
    // A duplicated and a negated row make |dot| = |a|^2 pairs.
    for (std::size_t k = 0; k < rows.samples(); ++k) {
      rows.row(4)[k] = rows.row(2)[k];
      rows.row(7)[k] = -rows.row(2)[k];
    }
  };
  constexpr std::size_t kSamples = 96;
  bio::AlignedRows big(40, kSamples);
  bio::AlignedRows small(37, kSamples);
  fill(big, 1e3);
  fill(small, 1e-3);
  expect_screened_exact(big, nullptr, &small, nullptr, "norms 1e3 x 1e-3");
  expect_screened_exact(big, nullptr, nullptr, nullptr, "norms 1e3");

  bio::AlignedRows tiny(40, kSamples);
  fill(tiny, 1e-20);  // products ~1e-40: float subnormals
  expect_screened_exact(tiny, nullptr, nullptr, nullptr,
                        "float subnormal products");

  bio::AlignedRows odd(40, kSamples);
  fill(odd, 1.0);
  std::vector<unsigned char> odd_valid(40, 1);
  for (std::size_t k = 0; k < kSamples; k += 3) {
    odd.row(12)[k] = 1e-310 * (k % 2 == 0 ? 1.0 : -1.0);  // double subnormal
    odd.row(13)[k] = 1e-40;                               // float subnormal
  }
  odd.row(20)[5] = 1e200;  // Σx² overflows: the block is computed exactly
  odd.row(21)[6] = 1e30;
  odd.row(21)[7] = -1e30;
  for (std::size_t k = 0; k < kSamples; ++k) odd.row(22)[k] = 1e200;
  odd.row(25)[9] = std::numeric_limits<double>::quiet_NaN();
  odd.row(30)[0] = std::numeric_limits<double>::quiet_NaN();
  odd_valid[30] = 0;  // an invalid row with garbage in it
  expect_screened_exact(odd, odd_valid.data(), nullptr, nullptr,
                        "subnormal, huge and NaN rows");
  expect_screened_exact(odd, odd_valid.data(), &small, nullptr,
                        "subnormal, huge and NaN rows x norms 1e-3");

  // A block that mixes a 1e200-scaled row (its scale overflows a float), a
  // 1e-300 row (its scale underflows) and unit rows; the unit rows alone
  // in the other block screen.
  bio::AlignedRows mixed(24, kSamples);
  fill(mixed, 1.0);
  for (std::size_t k = 0; k < kSamples; ++k) {
    mixed.row(10)[k] *= 1e200;
    mixed.row(15)[k] *= 1e-300;
  }
  bio::AlignedRows unit(24, kSamples);
  fill(unit, 1.0);
  expect_screened_exact(mixed, nullptr, nullptr, nullptr,
                        "1e200, 1e-300 and unit rows");
  expect_screened_exact(mixed, nullptr, &unit, nullptr,
                        "1e200, 1e-300 and unit rows x unit rows");
  expect_screened_exact(unit, nullptr, &mixed, nullptr,
                        "unit rows x 1e200, 1e-300 and unit rows");

  // 2,100 samples of ±1: a duplicated row's code product is 8100 · 2100,
  // past 2^24, where the int32 → float conversion rounds.
  bio::AlignedRows signs(30, 2100);
  for (std::size_t i = 0; i < signs.rows(); ++i) {
    for (std::size_t k = 0; k < signs.samples(); ++k) {
      signs.row(i)[k] = rng.below(2) == 0 ? 1.0 : -1.0;
    }
  }
  for (std::size_t k = 0; k < signs.samples(); ++k) {
    signs.row(4)[k] = signs.row(2)[k];
    signs.row(7)[k] = -signs.row(2)[k];
    signs.row(9)[k] = k < 2000 ? signs.row(2)[k] : -signs.row(2)[k];
  }
  expect_screened_exact(signs, nullptr, nullptr, nullptr,
                        "2100 samples of ±1");
}

/// One quantized row as the screen sees it: its codes read back from the
/// panel layout, its scale and offset.
struct DecodedRow {
  std::vector<int> codes;
  float scale = 0.0f;
  std::int32_t offset = 0;
};

DecodedRow decode_row(const bio::ScreenPanel& panel, std::size_t r) {
  DecodedRow row;
  for (std::size_t k = 0; k < panel.samples(); ++k) {
    const std::size_t g = k / 4;
    const std::uint32_t word =
        panel.codes()[((r / 16) * panel.groups() + g) * 16 + r % 16];
    row.codes.push_back(static_cast<std::int8_t>(word >> (8 * (k % 4))));
  }
  row.scale = panel.scales()[r];
  row.offset = panel.offsets()[r];
  return row;
}

TEST(CorrKernel, QuantizedPanelLayoutAndMarginBoundTheScreen) {
  // |screen value − profile_dot| <= screen_margin for random rows of 1–600
  // samples whose entries span 2^±20, and for cancelling pairs (y = ±x
  // alternating, so x·y is a sum of terms that cancel).
  util::Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.below(600));
    bio::AlignedRows rows(2, n);
    for (std::size_t k = 0; k < n; ++k) {
      const double x =
          rng.normal() * std::ldexp(1.0, static_cast<int>(rng.below(41)) - 20);
      rows.row(0)[k] = x;
      rows.row(1)[k] = trial % 2 == 0 ? rng.normal() *
                                            std::ldexp(1.0, static_cast<int>(
                                                                rng.below(41)) -
                                                                20)
                                      : (k % 2 == 0 ? x : -x);
    }
    bio::ScreenPanel a(1, n);
    bio::ScreenPanel b(1, n);
    a.fill(rows.row(0), rows.stride(), 1, nullptr);
    b.fill(rows.row(1), rows.stride(), 1, nullptr);
    ASSERT_TRUE(a.screens() && b.screens()) << "trial " << trial;
    const DecodedRow x = decode_row(a, 0);
    const DecodedRow y = decode_row(b, 0);
    std::int64_t dot = 0;
    std::int64_t sum_y = 0;
    double err_x = 0.0;
    double norm_x = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_LE(std::abs(x.codes[k]), 90);
      ASSERT_LE(std::abs(y.codes[k]), 90);
      dot += x.codes[k] * y.codes[k];
      sum_y += y.codes[k];
      const double e =
          rows.row(0)[k] - static_cast<double>(x.scale) * x.codes[k];
      err_x += e * e;
      norm_x += rows.row(0)[k] * rows.row(0)[k];
    }
    EXPECT_EQ(y.offset, -90 * sum_y);
    // The panel's bounds cover the row's own norms.
    EXPECT_GE(a.max_norm(), std::sqrt(norm_x));
    EXPECT_GE(a.max_error(), std::sqrt(err_x));
    const double screen =
        static_cast<double>(static_cast<float>(dot) * y.scale) *
        static_cast<double>(x.scale);
    const double exact = bio::profile_dot(rows.row(0), rows.row(1), n);
    const double margin = bio::detail::screen_margin(
        n, a.max_norm(), a.max_error(), b.max_norm(), b.max_error());
    EXPECT_LE(std::fabs(screen - exact), margin)
        << "trial " << trial << ", " << n << " samples";
  }
  // Past the int32 proof the margin switches the screen off.
  EXPECT_TRUE(std::isinf(
      bio::detail::screen_margin(bio::kMaxScreenSamples + 1, 1, 0, 1, 0)));
  EXPECT_TRUE(std::isfinite(
      bio::detail::screen_margin(bio::kMaxScreenSamples, 1, 0, 1, 0)));
}

TEST(CorrKernel, EveryScreenKernelListsTheSameCandidates) {
  const auto kernels = available_screen_kernels();
  ASSERT_FALSE(kernels.empty());
  for (const std::size_t samples : {1u, 2u, 3u, 5u, 96u, 97u, 600u, 2100u}) {
    // Standardized module rows, so pairs near the threshold are common.
    const auto expression =
        synthetic_expression(90, samples, 300 + samples);
    const auto rows =
        bio::standardize_rows(expression, bio::CorrelationMethod::kPearson,
                              nullptr);
    for (const auto& [a_first, a_count, b_first, b_count, diagonal] :
         {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                     bool>{0, 40, 0, 40, true},
          {0, 37, 40, 50, false},
          {5, 16, 60, 17, false}}) {
      bio::ScreenPanel a(a_count, samples);
      bio::ScreenPanel b(b_count, samples);
      a.fill(rows.rows.row(a_first), rows.rows.stride(), a_count,
             rows.valid.data() + a_first);
      b.fill(rows.rows.row(b_first), rows.rows.stride(), b_count,
             rows.valid.data() + b_first);
      for (const double threshold : {0.3, 0.6, 0.9}) {
        const auto expected = bio::detail::screen_candidates(
            kernels.front(), threshold, a, a_count, diagonal ? a : b,
            diagonal ? a_count : b_count, diagonal);
        // No edge is ruled out.
        for (std::size_t i = 0; i < a_count; ++i) {
          if (rows.valid[a_first + i] == 0) continue;
          for (std::size_t j = diagonal ? i + 1 : 0;
               j < (diagonal ? a_count : b_count); ++j) {
            const std::size_t gj = (diagonal ? a_first : b_first) + j;
            if (rows.valid[gj] == 0) continue;
            const double corr = bio::profile_dot(
                rows.rows.row(a_first + i), rows.rows.row(gj), samples);
            if (std::fabs(corr) >= threshold) {
              EXPECT_TRUE(std::binary_search(
                  expected.begin(), expected.end(),
                  static_cast<std::uint64_t>(i) << 32 | j))
                  << samples << " samples, pair (" << i << ", " << j << ")";
            }
          }
        }
        for (const auto kernel : kernels) {
          EXPECT_EQ(bio::detail::screen_candidates(
                        kernel, threshold, a, a_count, diagonal ? a : b,
                        diagonal ? a_count : b_count, diagonal),
                    expected)
              << bio::detail::screen_kernel_name(kernel) << ", " << samples
              << " samples, threshold " << threshold;
        }
      }
    }
  }
}

TEST(CorrKernel, ScreenCountersTrackRechecksAndExactBlocks) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  auto value = [&](const std::string& name) {
    for (const auto& metric : registry.scrape().metrics) {
      if (metric.name == name) return metric.value;
    }
    ADD_FAILURE() << "metric not found: " << name;
    return std::uint64_t{0};
  };
  const auto expression = synthetic_expression(300, 24, 71);
  const auto rows =
      bio::standardize_rows(expression, bio::CorrelationMethod::kSpearman,
                            nullptr);

  const std::uint64_t blocks0 = value("gsb_correlation_blocks_total");
  const std::uint64_t exact0 = value("gsb_correlation_exact_blocks_total");
  const std::uint64_t rechecked0 =
      value("gsb_correlation_rechecked_pairs_total");
  const auto sparse = sweep_edges(rows, 0.7, 32, nullptr);
  ASSERT_FALSE(sparse.empty());
  EXPECT_GE(value("gsb_correlation_rechecked_pairs_total") - rechecked0,
            sparse.size());

  const std::uint64_t blocks1 = value("gsb_correlation_blocks_total");
  const std::uint64_t exact1 = value("gsb_correlation_exact_blocks_total");
  EXPECT_LT(exact1 - exact0, blocks1 - blocks0);  // the screen ruled some out
  const auto dense = sweep_edges(rows, 0.0, 32, nullptr);
  const auto valid_rows = static_cast<std::size_t>(
      std::count(rows.valid.begin(), rows.valid.end(), 1));
  EXPECT_EQ(dense.size(), valid_rows * (valid_rows - 1) / 2);
  EXPECT_GT(value("gsb_correlation_blocks_total"), blocks1);
  EXPECT_EQ(value("gsb_correlation_exact_blocks_total") - exact1,
            value("gsb_correlation_blocks_total") - blocks1);
  registry.set_enabled(was_enabled);
}

}  // namespace
}  // namespace gsb
