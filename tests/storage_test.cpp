// Tests for the out-of-core storage engine: the FNV-1a checksum against its
// byte-at-a-time definition, .gsbg round-trips, corruption rejection, and —
// the load-bearing guarantee — byte-identical clique / paraclique results
// between the in-memory path and the memory-mapped path.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "core/maximum_clique.h"
#include "graph/graph_view.h"
#include "graph/generators.h"
#include "graph/transforms.h"
#include "pipeline/overlap.h"
#include "storage/gsbg_format.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "test_helpers.h"

namespace gsb {
namespace {

namespace fs = std::filesystem;

using test::TempFile;

void expect_same_adjacency(const graph::GraphView& a,
                           const graph::GraphView& b) {
  ASSERT_EQ(a.order(), b.order());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (graph::VertexId v = 0; v < a.order(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "degree mismatch at " << v;
    ASSERT_TRUE(a.neighbors(v) == b.neighbors(v)) << "row mismatch at " << v;
  }
}

TEST(Fnv1a, ZeroWordFoldMatchesByteReference) {
  // The byte-at-a-time FNV-1a the checksum is defined as.
  auto reference = [](const std::vector<unsigned char>& bytes) {
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
    return h;
  };
  util::Rng rng(8);
  auto check = [&](const std::vector<unsigned char>& bytes,
                   const std::string& label) {
    const std::uint64_t expected = reference(bytes);
    storage::Fnv1a whole;
    whole.update(bytes.data(), bytes.size());
    EXPECT_EQ(whole.digest(), expected) << label;
    // The same bytes fed in pieces split at arbitrary points, so words
    // straddle the calls and start at every alignment.
    storage::Fnv1a pieces;
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t piece = std::min<std::size_t>(
          bytes.size() - at, static_cast<std::size_t>(rng.below(23)));
      pieces.update(bytes.data() + at, piece);
      at += piece;
    }
    EXPECT_EQ(pieces.digest(), expected) << label << " (split)";
  };
  // Zero runs of every length up to three words, starting at every offset
  // mod 8, among nonzero bytes.
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t run = 0; run <= 24; ++run) {
      std::vector<unsigned char> bytes(48);
      for (auto& b : bytes) b = static_cast<unsigned char>(1 + rng.below(255));
      std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(8 + start), run,
                  0);
      check(bytes, "run " + std::to_string(run) + " at " +
                       std::to_string(8 + start));
    }
  }
  // Random lengths mixing long zero stretches (a sparse bitmap's shape),
  // stray zero bytes and random bytes.
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<unsigned char> bytes(static_cast<std::size_t>(rng.below(200)));
    for (auto& b : bytes) {
      b = rng.uniform() < 0.8 ? 0
                              : static_cast<unsigned char>(rng.below(256));
    }
    check(bytes, "trial " + std::to_string(trial));
  }
}

TEST(GsbgRoundTrip, PropertyOverSeededGnp) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::size_t n = 20 + (seed * 13) % 90;
    const double p = 0.05 + 0.02 * static_cast<double>(seed % 10);
    const graph::Graph g = test::random_graph(n, p, seed);

    TempFile file("roundtrip");
    storage::write_gsbg_file(g, file.path());
    storage::MappedGraph::Options verify;
    verify.verify_checksum = true;
    const auto mapped = storage::MappedGraph::open(file.path(), verify);

    ASSERT_EQ(mapped.order(), g.order());
    ASSERT_EQ(mapped.num_edges(), g.num_edges());
    expect_same_adjacency(mapped.view(), g);
    EXPECT_TRUE(mapped.load() == g) << "seed " << seed;

    // CSR rows are the sorted neighbor lists.
    for (graph::VertexId v = 0; v < g.order(); ++v) {
      const auto row = mapped.csr_row(v);
      const auto expected = g.neighbor_list(v);
      ASSERT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), expected);
    }
  }
}

TEST(GsbgRoundTrip, WahSectionMatchesBitmapRows) {
  const graph::Graph g = test::random_graph(150, 0.03, 99);
  TempFile file("wah");
  storage::GsbgWriteOptions options;
  options.wah = true;
  storage::write_gsbg_file(g, file.path(), options);
  const auto mapped = storage::MappedGraph::open(file.path());
  ASSERT_TRUE(mapped.has_wah());
  for (graph::VertexId v = 0; v < g.order(); ++v) {
    EXPECT_TRUE(mapped.wah_row(v).decompress() == g.neighbors(v));
  }
}

TEST(GsbgRoundTrip, NoBitmapFileLoadsButDoesNotMap) {
  const graph::Graph g = test::random_graph(60, 0.1, 5);
  TempFile file("nobitmap");
  storage::GsbgWriteOptions options;
  options.bitmap = false;
  storage::write_gsbg_file(g, file.path(), options);
  const auto mapped = storage::MappedGraph::open(file.path());
  EXPECT_FALSE(mapped.has_bitmap());
  EXPECT_THROW(mapped.view(), std::runtime_error);
  EXPECT_TRUE(mapped.load() == g);
}

TEST(GsbgRoundTrip, DegreeSortedStoresPermutationAndRelabels) {
  const graph::Graph g = test::random_graph(80, 0.08, 12);
  TempFile file("degsort");
  storage::GsbgWriteOptions options;
  options.degree_sort = true;
  storage::write_gsbg_file(g, file.path(), options);
  const auto mapped = storage::MappedGraph::open(file.path());
  ASSERT_TRUE(mapped.degree_sorted());
  const auto perm = mapped.permutation();
  ASSERT_EQ(perm.size(), g.order());

  // Degrees are non-increasing in storage order.
  for (std::size_t v = 0; v + 1 < mapped.order(); ++v) {
    EXPECT_GE(mapped.degree(static_cast<graph::VertexId>(v)),
              mapped.degree(static_cast<graph::VertexId>(v + 1)));
  }
  // Stored graph is exactly relabel(g, perm).
  const graph::Graph relabeled = graph::relabel(
      g, std::vector<graph::VertexId>(perm.begin(), perm.end()));
  EXPECT_TRUE(mapped.load() == relabeled);
}

// --- corruption rejection ----------------------------------------------------

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

void dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// File offset of the section of \p kind in a container's \p bytes.
std::size_t section_offset(const std::vector<char>& bytes,
                           storage::SectionKind kind) {
  std::uint64_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 40, 8);
  for (std::uint64_t i = 0; i < section_count; ++i) {
    const std::size_t entry = storage::kHeaderBytes +
                              static_cast<std::size_t>(i) *
                                  storage::kSectionEntryBytes;
    std::uint32_t found = 0;
    std::uint64_t offset = 0;
    std::memcpy(&found, bytes.data() + entry, 4);
    std::memcpy(&offset, bytes.data() + entry + 8, 8);
    if (static_cast<storage::SectionKind>(found) == kind) {
      return static_cast<std::size_t>(offset);
    }
  }
  ADD_FAILURE() << "no section of kind " << static_cast<unsigned>(kind);
  return 0;
}

/// Sets a padding bit (bit 63, so n % 64 != 0) of row \p v's last word.
void set_padding_bit(std::vector<char>& bytes, std::uint64_t v) {
  std::uint64_t n = 0;
  std::memcpy(&n, bytes.data() + 16, 8);
  ASSERT_NE(n % 64, 0u);
  const std::size_t wpr = (n + 63) / 64;
  const std::size_t last_word =
      section_offset(bytes, storage::SectionKind::kBitmap) +
      ((v + 1) * wpr - 1) * 8;
  bytes[last_word + 7] = static_cast<char>(
      static_cast<unsigned char>(bytes[last_word + 7]) | 0x80u);
}

class GsbgReject : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::Graph g = test::random_graph(50, 0.1, 3);
    file_ = std::make_unique<TempFile>("reject");
    storage::write_gsbg_file(g, file_->path());
    bytes_ = slurp(file_->path());
    ASSERT_GT(bytes_.size(), storage::kHeaderBytes);
  }

  void expect_rejected_on_plain_open(const std::vector<char>& bytes) {
    dump(file_->path(), bytes);
    EXPECT_THROW(storage::MappedGraph::open(file_->path()),
                 std::runtime_error);
  }

  void expect_rejected(const std::vector<char>& bytes) {
    dump(file_->path(), bytes);
    storage::MappedGraph::Options verify;
    verify.verify_checksum = true;
    EXPECT_THROW(storage::MappedGraph::open(file_->path(), verify),
                 std::runtime_error);
  }

  std::unique_ptr<TempFile> file_;
  std::vector<char> bytes_;
};

TEST_F(GsbgReject, TruncatedFiles) {
  // Mid-header, mid-section-table, and mid-payload truncations.
  for (const std::size_t keep :
       {std::size_t{10}, storage::kHeaderBytes + 8, bytes_.size() / 2,
        bytes_.size() - 1}) {
    expect_rejected(std::vector<char>(bytes_.begin(),
                                      bytes_.begin() +
                                          static_cast<std::ptrdiff_t>(keep)));
  }
}

TEST_F(GsbgReject, BadMagic) {
  auto bytes = bytes_;
  bytes[0] = 'X';
  expect_rejected(bytes);
}

TEST_F(GsbgReject, WrongVersion) {
  auto bytes = bytes_;
  bytes[8] = 99;  // version field low byte
  expect_rejected(bytes);
}

TEST_F(GsbgReject, ChecksumMismatch) {
  auto bytes = bytes_;
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);  // flip payload bit
  expect_rejected(bytes);
}

TEST_F(GsbgReject, BitmapPaddingBitsRejectedOnPlainOpen) {
  // Padding bits beyond n in a row's last word violate the invariant the
  // bit-string kernels rely on; this must be caught even without the
  // checksum pass (plain open): in the first row, the last row, and a row
  // of a middle 1 MiB window of a 3 MB bitmap.
  for (const std::uint64_t row : {std::uint64_t{0}, std::uint64_t{49}}) {
    auto bytes = bytes_;
    set_padding_bit(bytes, row);
    expect_rejected_on_plain_open(bytes);
  }
  graph::Graph wide(5000);
  wide.add_edge(1, 4999);
  wide.add_edge(2500, 2501);
  storage::write_gsbg_file(wide, file_->path());
  auto bytes = slurp(file_->path());
  set_padding_bit(bytes, 2500);
  expect_rejected_on_plain_open(bytes);
}

TEST_F(GsbgReject, CorruptCsrRowsRejectedOnPlainOpen) {
  // The analysis lists neighbours from the CSR, so open checks every row:
  // targets below n, strictly ascending, no self-loop, each arc with its
  // reverse.  Each case below breaks one of these in one row.
  std::uint64_t n = 0;
  std::memcpy(&n, bytes_.data() + 16, 8);
  const std::size_t offsets_at =
      section_offset(bytes_, storage::SectionKind::kCsrOffsets);
  const std::size_t targets_at =
      section_offset(bytes_, storage::SectionKind::kCsrTargets);
  std::vector<std::uint64_t> offsets(n + 1);
  std::memcpy(offsets.data(), bytes_.data() + offsets_at, (n + 1) * 8);
  auto target = [&](const std::vector<char>& bytes, std::uint64_t i) {
    std::uint32_t t = 0;
    std::memcpy(&t, bytes.data() + targets_at + i * 4, 4);
    return t;
  };
  auto set_target = [&](std::vector<char>& bytes, std::uint64_t i,
                        std::uint32_t t) {
    std::memcpy(bytes.data() + targets_at + i * 4, &t, 4);
  };
  // A row of degree >= 2 whose first target is below it and whose second
  // is above it, with a gap after the second.
  std::uint64_t v = 0;
  while (v < n && !(offsets[v + 1] - offsets[v] >= 2 &&
                    target(bytes_, offsets[v]) < v &&
                    target(bytes_, offsets[v] + 1) > v &&
                    target(bytes_, offsets[v] + 1) + 1 <
                        (offsets[v + 1] - offsets[v] > 2
                             ? target(bytes_, offsets[v] + 2)
                             : n))) {
    ++v;
  }
  ASSERT_LT(v, n);
  const std::uint64_t first = offsets[v];
  const std::uint64_t last = offsets[v + 1] - 1;
  const std::uint32_t low = target(bytes_, first);
  const std::uint32_t high = target(bytes_, first + 1);

  const auto reject = [&](const char* what, auto&& corrupt) {
    SCOPED_TRACE(what);
    auto bytes = bytes_;
    corrupt(bytes);
    expect_rejected_on_plain_open(bytes);
  };
  reject("target equal to n", [&](std::vector<char>& bytes) {
    set_target(bytes, last, static_cast<std::uint32_t>(n));
  });
  reject("two targets swapped", [&](std::vector<char>& bytes) {
    set_target(bytes, first, high);
    set_target(bytes, first + 1, low);
  });
  reject("duplicate target", [&](std::vector<char>& bytes) {
    set_target(bytes, first + 1, low);
  });
  reject("self-loop", [&](std::vector<char>& bytes) {
    set_target(bytes, first + 1, static_cast<std::uint32_t>(v));
  });
  reject("arc without its reverse", [&](std::vector<char>& bytes) {
    set_target(bytes, first + 1, high + 1);
  });
}

TEST_F(GsbgReject, SectionOutOfBounds) {
  auto bytes = bytes_;
  // First section entry's offset field is at header + 8; point it past EOF.
  const std::uint64_t bogus = bytes.size() + storage::kSectionAlign;
  std::memcpy(bytes.data() + storage::kHeaderBytes + 8, &bogus, 8);
  expect_rejected(bytes);
}

TEST(GsbgRejectContent, CorruptPermutationEntryRejected) {
  const graph::Graph g = test::random_graph(40, 0.1, 8);
  TempFile file("permreject");
  storage::GsbgWriteOptions options;
  options.degree_sort = true;
  storage::write_gsbg_file(g, file.path(), options);

  auto bytes = slurp(file.path());
  const std::uint32_t bogus = 0xFFFFFFFFu;  // >= n: not a bijection
  std::memcpy(
      bytes.data() + section_offset(bytes, storage::SectionKind::kPermutation),
      &bogus, 4);
  dump(file.path(), bytes);
  EXPECT_THROW(storage::MappedGraph::open(file.path()), std::runtime_error);
}

// --- neighbour lists: CSR against rows --------------------------------------

// A mapped view lists neighbours from the container's CSR; an in-memory
// view from its rows.  Both must visit the same ids in the same order, so
// the peels and the induced subgraphs built through them agree, also on a
// degree-sorted container (compared with the graph it stores).
TEST(MappedNeighbourLists, CsrMatchesRowsAndTransforms) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    // Every third vertex isolated.
    const graph::Graph dense = test::random_graph(80, 0.12 * seed, seed);
    graph::Graph g(120);
    for (const auto& [u, w] : dense.edge_list()) {
      g.add_edge(u + u / 2, w + w / 2);
    }
    for (const bool degree_sort : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (degree_sort ? ", degree-sorted" : ", plain"));
      TempFile file("neighbour_lists");
      storage::GsbgWriteOptions options;
      options.degree_sort = degree_sort;
      storage::write_gsbg_file(g, file.path(), options);
      const auto mapped = storage::MappedGraph::open(file.path());
      const graph::GraphView lists = mapped.view();
      const graph::Graph stored = mapped.load();
      const graph::GraphView rows(stored);
      for (graph::VertexId v = 0; v < stored.order(); ++v) {
        std::vector<graph::VertexId> from_lists;
        std::vector<graph::VertexId> from_rows;
        lists.for_each_neighbor(v, [&](graph::VertexId u) {
          from_lists.push_back(u);
        });
        rows.for_each_neighbor(v, [&](graph::VertexId u) {
          from_rows.push_back(u);
        });
        ASSERT_EQ(from_lists, from_rows) << "vertex " << v;
        ASSERT_EQ(lists.neighbor_list(v), from_rows) << "vertex " << v;
      }
      for (const std::size_t k : {1u, 2u, 3u, 5u}) {
        EXPECT_TRUE(graph::kcore_mask(lists, k) == graph::kcore_mask(rows, k))
            << "k " << k;
        const auto from_lists = graph::kcore_subgraph(lists, k);
        const auto from_rows = graph::kcore_subgraph(rows, k);
        EXPECT_EQ(from_lists.mapping, from_rows.mapping) << "k " << k;
        EXPECT_TRUE(from_lists.graph == from_rows.graph) << "k " << k;
      }
      std::vector<graph::VertexId> subset;
      for (graph::VertexId v = 0; v < stored.order(); v += 2) {
        subset.push_back(v);
      }
      const auto sub_lists = graph::induced_subgraph(lists, subset);
      const auto sub_rows = graph::induced_subgraph(rows, subset);
      EXPECT_EQ(sub_lists.mapping, sub_rows.mapping);
      EXPECT_TRUE(sub_lists.graph == sub_rows.graph);
      // `gsb cliques --engine bk` writes cliques in this order.
      const auto order_lists = graph::core_decomposition(lists);
      const auto order_rows = graph::core_decomposition(rows);
      EXPECT_EQ(order_lists.order, order_rows.order);
      EXPECT_EQ(order_lists.core, order_rows.core);
      EXPECT_EQ(order_lists.degeneracy, order_rows.degeneracy);
    }
  }
}

#if defined(__linux__)
/// Resident bytes of this process's mappings of \p path, summed over the
/// `Rss:` lines of /proc/self/smaps.
std::size_t mapped_resident_bytes(const std::string& path) {
  std::ifstream smaps("/proc/self/smaps");
  std::string line;
  bool ours = false;
  std::size_t total = 0;
  while (std::getline(smaps, line)) {
    const std::string key = line.substr(0, line.find(' '));
    if (key.empty() || key.back() != ':') {
      // A mapping's header line: "lo-hi perms offset dev inode [path]".
      ours = line.size() >= path.size() &&
             line.compare(line.size() - path.size(), path.size(), path) == 0;
    } else if (ours && key == "Rss:") {
      total += std::stoull(line.substr(key.size())) * 1024;
    }
  }
  return total;
}
#endif

// The pipeline's analysis of a mapped view reads CSR for every n-wide
// step, so the bitmap section stays on disk: after open (whose padding
// check hands its pages back) and the whole of run_analysis, the mapping
// holds little more than the CSR sections.
TEST(MappedAnalysis, BitmapStaysOnDisk) {
#if !defined(__linux__)
  GTEST_SKIP() << "reads /proc/self/smaps";
#else
  util::Rng rng(17);
  graph::ModuleGraphConfig config;
  config.n = 10000;
  config.num_modules = 60;
  config.max_module_size = 12;
  const auto modules = graph::planted_modules_with_edges(config, 3000, rng);
  TempFile file("bitmap_on_disk");
  storage::write_gsbg_file(modules.graph, file.path());
  const auto mapped = storage::MappedGraph::open(file.path());
  const std::size_t csr =
      mapped.csr_offsets().size_bytes() + mapped.csr_targets().size_bytes();
  const std::size_t bitmap =
      mapped.order() * ((mapped.order() + 63) / 64) * sizeof(std::uint64_t);
  ASSERT_GE(bitmap, 50 * csr);

  pipeline::AnalysisOptions options;
  options.range = core::SizeRange{4, 0};
  options.threads = 2;
  options.overlap = false;
  const auto result = pipeline::run_analysis(mapped.view(), options);
  EXPECT_GE(result.maximum.clique.size(), 4u);
  EXPECT_GT(result.spectrum.total, 0u);
  EXPECT_FALSE(result.paracliques.empty());
  EXPECT_LT(mapped_resident_bytes(file.path()), csr + (std::size_t{1} << 20));
#endif
}

// --- mmap vs in-memory identity ---------------------------------------------

TEST(MappedIdentity, CliquesAndParacliquesMatchInMemoryOn20Graphs) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) {
    const std::size_t n = 30 + (seed % 5) * 17;
    const graph::Graph g = test::random_graph(n, 0.25, seed);
    TempFile file("identity");
    storage::write_gsbg_file(g, file.path());
    const auto mapped = storage::MappedGraph::open(file.path());
    const graph::GraphView view = mapped.view();

    // Sequential enumerator, parallel enumerator, maximum clique,
    // paraclique extraction, hub ranking: all must be byte-identical.
    core::CliqueEnumeratorOptions seq;
    seq.range = {3, 0};
    core::CliqueCollector from_memory;
    core::CliqueCollector from_disk;
    core::enumerate_maximal_cliques(g, from_memory.callback(), seq);
    core::enumerate_maximal_cliques(view, from_disk.callback(), seq);
    ASSERT_EQ(from_memory.cliques(), from_disk.cliques()) << "seed " << seed;

    core::ParallelOptions par;
    par.threads = 2;
    core::CliqueCollector par_disk;
    core::enumerate_maximal_cliques_parallel(view, par_disk.callback(), par);
    ASSERT_EQ(core::normalize(std::move(from_memory.cliques())),
              core::normalize(std::move(par_disk.cliques())));

    ASSERT_EQ(core::maximum_clique(g).clique,
              core::maximum_clique(view).clique);

    const auto para_memory = analysis::extract_all_paracliques(g, 4, {});
    const auto para_disk = analysis::extract_all_paracliques(view, 4, {});
    ASSERT_EQ(para_memory.size(), para_disk.size());
    for (std::size_t i = 0; i < para_memory.size(); ++i) {
      ASSERT_EQ(para_memory[i].members, para_disk[i].members);
    }

    const auto hubs_memory = analysis::top_hubs(g, std::vector<core::Clique>{}, 5);
    const auto hubs_disk = analysis::top_hubs(view, std::vector<core::Clique>{}, 5);
    ASSERT_EQ(hubs_memory.size(), hubs_disk.size());
    for (std::size_t i = 0; i < hubs_memory.size(); ++i) {
      ASSERT_EQ(hubs_memory[i].vertex, hubs_disk[i].vertex);
      ASSERT_EQ(hubs_memory[i].degree, hubs_disk[i].degree);
    }
  }
}

}  // namespace
}  // namespace gsb
