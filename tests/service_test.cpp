// Tests for the graph query service: catalog ref-counting and epochs, the
// .gsbci clique index (indexed answers == full-stream rescans, and indexed
// queries never touch the rest of the stream), byte-identical results with
// the cache on/off and at every thread count, LRU eviction under the byte
// budget, the stdin serve loop, and the epoll socket loop on TCP and Unix
// listeners.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <optional>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "core/maximum_clique.h"
#include "graph/transforms.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "service/batch_executor.h"
#include "service/client.h"
#include "service/clique_index.h"
#include "service/graph_catalog.h"
#include "service/query.h"
#include "service/query_engine.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/tcp_server.h"
#include "service/wire_protocol.h"
#include "storage/clique_stream.h"
#include "storage/gsbg_writer.h"
#include "tests/test_helpers.h"

#if defined(__linux__)
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace gsb::service {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

/// Graph + clique stream + sidecar index on disk for one seeded graph.
struct Artifacts {
  graph::Graph graph;
  std::string gsbg;
  std::string gsbc;
  std::string gsbci;

  ~Artifacts() {
    std::remove(gsbg.c_str());
    std::remove(gsbc.c_str());
    std::remove(gsbci.c_str());
  }
};

Artifacts make_artifacts(std::size_t n, double p, std::uint64_t seed,
                         const std::string& stem) {
  Artifacts a;
  a.graph = test::random_graph(n, p, seed);
  a.gsbg = temp_path(stem + ".gsbg");
  a.gsbc = temp_path(stem + ".gsbc");
  a.gsbci = default_index_path(a.gsbc);
  storage::write_gsbg_file(a.graph, a.gsbg);
  storage::GsbcWriter writer(a.gsbc, a.graph.order());
  core::degeneracy_bk(a.graph, [&](std::span<const graph::VertexId> clique) {
    writer.append(clique);
  });
  writer.close();
  build_clique_index(a.gsbc, a.gsbci);
  return a;
}

GraphSpec spec_for(const Artifacts& a, bool with_index = true) {
  GraphSpec spec;
  spec.graph_path = a.gsbg;
  spec.cliques_path = a.gsbc;
  spec.probe_index = with_index;
  return spec;
}

/// A mixed workload touching every query kind (plus deliberate errors).
std::vector<std::string> mixed_workload(const graph::Graph& g) {
  std::vector<std::string> lines;
  const auto n = static_cast<graph::VertexId>(g.order());
  for (graph::VertexId v = 0; v < n; v += 3) {
    lines.push_back("neighbors " + std::to_string(v));
    lines.push_back("degree " + std::to_string(v));
    lines.push_back("cliques-containing " + std::to_string(v));
    lines.push_back("kcore-membership 3 " + std::to_string(v));
    if (v + 1 < n) {
      lines.push_back("common-neighbors " + std::to_string(v + 1) + " " +
                      std::to_string(v));
      lines.push_back("induced-subgraph " + std::to_string(v) + " " +
                      std::to_string(v + 1) + " " + std::to_string((v + 7) % n));
    }
  }
  lines.push_back("top-hubs 5");
  lines.push_back("neighbors " + std::to_string(n));  // out of range
  lines.push_back("no-such-query 1");                 // parse error
  lines.push_back("degree 0");                        // repeat -> cache hit
  lines.push_back("degree 0");
  return lines;
}

/// Turns the global metrics registry and request traces on for one test
/// (what `gsb serve --metrics` does) and restores the disabled default on
/// exit, so instrumentation state never leaks between tests.
struct ScopedObservability {
  ScopedObservability() {
    obs::MetricsRegistry::global().set_enabled(true);
    obs::TimelineJournal::global().set_request_traces_enabled(true);
  }
  ~ScopedObservability() {
    obs::MetricsRegistry::global().set_enabled(false);
    obs::TimelineJournal& journal = obs::TimelineJournal::global();
    journal.set_request_traces_enabled(false);
    journal.requests().set_slow_log_micros(0);
    journal.requests().clear();
  }
};

/// Turns the global timeline journal on for one test and restores the
/// disabled default (plus a fresh capture window) on exit.
struct ScopedTimeline {
  ScopedTimeline() {
    obs::TimelineJournal::global().reset();
    obs::TimelineJournal::global().set_enabled(true);
  }
  ~ScopedTimeline() {
    obs::TimelineJournal::global().set_enabled(false);
    obs::TimelineJournal::global().reset();
  }
};

TEST(Query, ParsesAndCanonicalizes) {
  EXPECT_EQ(canonical_query(parse_query("  common-neighbors 9   2 ")),
            "common-neighbors 2 9");
  EXPECT_EQ(canonical_query(parse_query("induced-subgraph 7 3 3 1")),
            "induced-subgraph 1 3 7");
  EXPECT_EQ(canonical_query(parse_query("paraclique-expand 2 5 1 5")),
            "paraclique-expand 2 1 5");
  EXPECT_EQ(canonical_query(parse_query("kcore-membership 4 11")),
            "kcore-membership 4 11");
  EXPECT_EQ(canonical_query(parse_query("top-hubs 10")), "top-hubs 10");
  EXPECT_THROW(parse_query(""), std::runtime_error);
  EXPECT_THROW(parse_query("degree"), std::runtime_error);
  EXPECT_THROW(parse_query("degree 1 2"), std::runtime_error);
  EXPECT_THROW(parse_query("degree -3"), std::runtime_error);
  EXPECT_THROW(parse_query("common-neighbors 4 4"), std::runtime_error);
  EXPECT_THROW(parse_query("top-hubs 0"), std::runtime_error);
  EXPECT_THROW(parse_query("frobnicate 1"), std::runtime_error);
}

TEST(Query, ExecuteSpanLabelsNameEveryKind) {
  const std::pair<QueryKind, const char*> expected[] = {
      {QueryKind::kNeighbors, "execute:neighbors"},
      {QueryKind::kDegree, "execute:degree"},
      {QueryKind::kCommonNeighbors, "execute:common-neighbors"},
      {QueryKind::kInducedSubgraph, "execute:induced-subgraph"},
      {QueryKind::kKcoreMembership, "execute:kcore-membership"},
      {QueryKind::kCliquesContaining, "execute:cliques-containing"},
      {QueryKind::kParacliqueExpand, "execute:paraclique-expand"},
      {QueryKind::kTopHubs, "execute:top-hubs"},
  };
  for (const auto& [kind, label] : expected) {
    EXPECT_EQ(query_execute_label(kind), label);
    EXPECT_EQ(query_execute_label(kind),
              std::string("execute:") + query_kind_name(kind));
  }
}

TEST(QueryEngine, AnswersMatchDirectComputation) {
  const auto a = make_artifacts(40, 0.3, 7, "service_direct");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  QueryEngine engine(entry);

  const graph::GraphView g(a.graph);
  std::string expected = "neighbors 5:";
  for (const graph::VertexId w : g.neighbor_list(5)) {
    expected += ' ' + std::to_string(w);
  }
  EXPECT_EQ(engine.execute_line("neighbors 5"), expected);
  EXPECT_EQ(engine.execute_line("degree 5"),
            "degree 5: " + std::to_string(g.degree(5)));

  std::string common = "common-neighbors 2 9:";
  for (const graph::VertexId w : g.neighbor_list(2)) {
    if (g.has_edge(9, w)) common += ' ' + std::to_string(w);
  }
  EXPECT_EQ(engine.execute_line("common-neighbors 9 2"), common);

  const auto mask = test::reference_kcore_mask(g, 3);
  EXPECT_EQ(engine.execute_line("kcore-membership 3 5"),
            std::string("kcore-membership 3 5: ") + (mask.test(5) ? "1" : "0"));

  const std::vector<std::uint32_t> participation =
      analysis::vertex_participation(g.order(), [&] {
        core::CliqueCollector collector;
        core::degeneracy_bk(g, collector.callback());
        return collector.cliques();
      }());
  const auto hub_line = [](std::size_t count,
                           const std::vector<analysis::HubReport>& hubs,
                           const auto& original) {
    std::string line = "top-hubs " + std::to_string(count) + ":";
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      line += i == 0 ? " " : "; ";
      line += std::to_string(original(hubs[i].vertex)) +
              " deg=" + std::to_string(hubs[i].degree) +
              " cliques=" + std::to_string(hubs[i].clique_participation);
    }
    return line;
  };
  const auto identity = [](graph::VertexId v) { return v; };
  EXPECT_EQ(engine.execute_line("top-hubs 3"),
            hub_line(3, analysis::top_hubs(g, participation, 3), identity));

  // Errors are responses, not exceptions.
  const auto bad = engine.execute_line("degree 4096");
  EXPECT_TRUE(bad.starts_with("error:")) << bad;
  EXPECT_TRUE(engine.execute_line("bogus").starts_with("error:"));

  // kcore-membership and top-hubs read values each epoch computes once.
  // Every K up to the degeneracy + 2 and every V against the queue peel,
  // and top-hubs N against analysis::top_hubs over the container's stored
  // ids: on a plain and a degree-sorted container, with no clique stream,
  // an indexed one and a rescanned one, and again once a reload gives the
  // name a new epoch.
  const std::size_t n = g.order();
  const std::size_t degeneracy = test::reference_degeneracy_order(g).degeneracy;
  const std::string sorted_path = temp_path("service_direct_sorted.gsbg");
  storage::GsbgWriteOptions sort;
  sort.degree_sort = true;
  storage::write_gsbg_file(a.graph, sorted_path, sort);
  for (const std::string& path : {a.gsbg, sorted_path}) {
    const auto container = storage::MappedGraph::open(path);
    const auto perm = container.permutation();
    ASSERT_EQ(perm.empty(), path == a.gsbg);
    const auto original = [&perm](graph::VertexId stored) {
      return perm.empty() ? stored : static_cast<graph::VertexId>(perm[stored]);
    };
    for (const int cliques : {0, 1, 2}) {  // none, indexed, rescanned
      SCOPED_TRACE(path + " cliques " + std::to_string(cliques));
      GraphSpec spec;
      spec.graph_path = path;
      if (cliques > 0) spec.cliques_path = a.gsbc;
      spec.probe_index = cliques == 1;
      std::vector<std::uint32_t> stored_participation(n, 0);
      if (cliques > 0) {
        for (graph::VertexId v = 0; v < n; ++v) {
          stored_participation[v] = participation[original(v)];
        }
      }
      std::uint64_t last_epoch = 0;
      for (int load = 0; load < 2; ++load) {
        const auto reloaded = catalog.open("g", spec);
        EXPECT_GT(reloaded->epoch(), last_epoch);
        last_epoch = reloaded->epoch();
        EXPECT_EQ(reloaded->index() != nullptr, cliques == 1);
        QueryEngine fresh(reloaded);
        for (std::size_t k = 0; k <= degeneracy + 2; ++k) {
          const auto core = test::reference_kcore_mask(g, k);
          for (graph::VertexId v = 0; v < n; ++v) {
            const std::string query = "kcore-membership " + std::to_string(k) +
                                      " " + std::to_string(v);
            ASSERT_EQ(fresh.execute_line(query),
                      query + (core.test(v) ? ": 1" : ": 0"));
          }
        }
        EXPECT_TRUE(fresh.execute_line("top-hubs 0").starts_with("error:"));
        for (const std::size_t count : {std::size_t{1}, std::size_t{10}, n,
                                        n + 5}) {
          EXPECT_EQ(fresh.execute_line("top-hubs " + std::to_string(count)),
                    hub_line(count,
                             analysis::top_hubs(container.view(),
                                                stored_participation, count),
                             original))
              << "count " << count;
        }
      }
    }
  }
  std::remove(sorted_path.c_str());
}

// Several engines on one fresh entry ask for the per-epoch values at
// once: each is computed by whichever asks first, and every engine
// answers as one engine alone does.  (ThreadSanitizer runs this suite.)
TEST(QueryEngine, ConcurrentFirstUseAnswersLikeOneEngine) {
  const auto a = make_artifacts(60, 0.2, 23, "service_first_use");
  std::vector<std::string> lines;
  for (graph::VertexId v = 0; v < 60; v += 7) {
    for (const int k : {0, 2, 4, 6}) {
      lines.push_back("kcore-membership " + std::to_string(k) + " " +
                      std::to_string(v));
    }
    lines.push_back("top-hubs " + std::to_string(v + 1));
  }
  GraphCatalog catalog;
  QueryEngine alone(catalog.open("alone", spec_for(a, false)));
  std::vector<std::string> expected;
  for (const auto& line : lines) expected.push_back(alone.execute_line(line));

  const auto shared = catalog.open("shared", spec_for(a, false));
  constexpr std::size_t kEngines = 4;
  std::vector<std::vector<std::string>> answers(kEngines);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kEngines; ++t) {
    threads.emplace_back([&, t] {
      QueryEngine engine(shared);
      ready.fetch_add(1);
      while (ready.load() < kEngines) std::this_thread::yield();
      // Half the engines start with top-hubs, half with kcore-membership.
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::size_t line = t % 2 == 0 ? i : lines.size() - 1 - i;
        answers[t].push_back(engine.execute_line(lines[line]));
      }
      if (t % 2 == 1) std::reverse(answers[t].begin(), answers[t].end());
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kEngines; ++t) {
    EXPECT_EQ(answers[t], expected) << "engine " << t;
  }
}

TEST(QueryEngine, ParacliqueExpandMatchesAnalysis) {
  const auto a = make_artifacts(36, 0.35, 11, "service_para");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  QueryEngine engine(entry);
  const graph::GraphView g(a.graph);

  // Seed with a real clique (the largest streamed one).
  core::CliqueCollector collector;
  core::degeneracy_bk(g, collector.callback());
  core::Clique best;
  for (const auto& clique : collector.cliques()) {
    if (clique.size() > best.size()) best = clique;
  }
  ASSERT_GE(best.size(), 2u);

  analysis::ParacliqueOptions options;
  options.glom = 1;
  const auto grown = analysis::grow_paraclique(g, best, options);
  std::string line = "paraclique-expand 1";
  for (const graph::VertexId v : best) line += ' ' + std::to_string(v);
  std::string expected = canonical_query(parse_query(line)) + ":";
  for (const graph::VertexId v : grown.members) {
    expected += ' ' + std::to_string(v);
  }
  EXPECT_EQ(engine.execute_line(line), expected);

  // A non-clique seed is rejected deterministically.
  graph::VertexId u = 0;
  graph::VertexId w = 1;
  bool found = false;
  for (u = 0; u < g.order() && !found; ++u) {
    for (w = u + 1; w < g.order(); ++w) {
      if (!g.has_edge(u, w)) {
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found);
  --u;  // undo the loop increment after `found`
  const auto bad = engine.execute_line("paraclique-expand 1 " +
                                       std::to_string(u) + " " +
                                       std::to_string(w));
  EXPECT_TRUE(bad.starts_with("error:")) << bad;
}

// The glom test saturates: a glom of SIZE_MAX (which the grammar accepts,
// any u64 parses) admits the same members as a glom of n — every vertex
// adjacent to a member — instead of wrapping back to the bare seed.
TEST(QueryEngine, ParacliqueExpandSaturatesHugeGlom) {
  const auto a = make_artifacts(36, 0.35, 11, "service_para_glom");
  GraphCatalog catalog;
  QueryEngine engine(catalog.open("g", spec_for(a)));
  std::string seed;
  for (const graph::VertexId v : core::maximum_clique(a.graph).clique) {
    seed += ' ' + std::to_string(v);
  }
  const auto ids = [](const std::string& response) {
    return response.substr(response.find(':'));
  };
  const auto by_order = engine.execute_line(
      "paraclique-expand " + std::to_string(a.graph.order()) + seed);
  const auto by_max =
      engine.execute_line("paraclique-expand 18446744073709551615" + seed);
  ASSERT_FALSE(by_order.starts_with("error:")) << by_order;
  ASSERT_FALSE(by_max.starts_with("error:")) << by_max;
  EXPECT_EQ(ids(by_max), ids(by_order));
  // The graph is connected enough that the saturated paraclique grows
  // past its seed.
  EXPECT_GT(std::count(by_max.begin(), by_max.end(), ' '),
            std::count(seed.begin(), seed.end(), ' ') + 3);
}

TEST(CliqueIndex, IndexedEqualsRescanOn20SeededGraphs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const auto a = make_artifacts(26 + seed, 0.35, seed,
                                  "service_idx_" + std::to_string(seed));
    GraphCatalog catalog;
    auto indexed = catalog.open("indexed", spec_for(a, true));
    auto rescan = catalog.open("rescan", spec_for(a, false));
    ASSERT_NE(indexed->index(), nullptr);
    ASSERT_EQ(rescan->index(), nullptr);
    QueryEngine indexed_engine(indexed);
    QueryEngine rescan_engine(rescan);
    for (graph::VertexId v = 0; v < a.graph.order(); ++v) {
      const std::string line = "cliques-containing " + std::to_string(v);
      EXPECT_EQ(indexed_engine.execute_line(line),
                rescan_engine.execute_line(line))
          << "seed " << seed << " vertex " << v;
    }
    EXPECT_EQ(indexed_engine.stats().index_queries, a.graph.order());
    EXPECT_EQ(indexed_engine.stats().stream_scans, 0u);
    EXPECT_EQ(rescan_engine.stats().stream_scans, a.graph.order());
  }
}

TEST(CliqueIndex, AnswersWithoutScanningTheFullStream) {
  const auto a = make_artifacts(60, 0.3, 3, "service_noscan");
  auto reader = storage::GsbcReader::open(a.gsbc);
  const std::uint64_t total = reader.clique_count();
  ASSERT_GT(total, 10u);

  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  const CliqueIndex* index = entry->index();
  ASSERT_NE(index, nullptr);

  // Pick a vertex that is in some cliques but far from all of them.
  graph::VertexId v = 0;
  for (; v < a.graph.order(); ++v) {
    const auto count = index->participation(v);
    if (count > 0 && count < total / 2) break;
  }
  ASSERT_LT(v, a.graph.order());

  QueryEngine engine(entry);
  const auto response =
      engine.execute_line("cliques-containing " + std::to_string(v));
  EXPECT_TRUE(response.starts_with("cliques-containing")) << response;
  // Exactly the posting list was decoded — not the remainder of the stream.
  EXPECT_EQ(engine.stats().records_decoded, index->participation(v));
  EXPECT_LT(engine.stats().records_decoded, total);
  EXPECT_EQ(engine.stats().index_queries, 1u);
  EXPECT_EQ(engine.stats().stream_scans, 0u);

  // Participation shortcut: posting lengths == one full stream count.
  auto scan = storage::GsbcReader::open(a.gsbc);
  const auto expected =
      analysis::vertex_participation(a.graph.order(), scan);
  for (graph::VertexId u = 0; u < a.graph.order(); ++u) {
    EXPECT_EQ(index->participation(u), expected[u]) << "vertex " << u;
  }
}

TEST(CliqueIndex, RejectsCorruptionAndStaleness) {
  const auto a = make_artifacts(30, 0.3, 5, "service_idxbad");

  // Truncation: the exact-size check fails loudly.
  const auto bytes = fs::file_size(a.gsbci);
  fs::resize_file(a.gsbci, bytes - 8);
  EXPECT_THROW(CliqueIndex::open(a.gsbci), std::runtime_error);

  // A flipped payload byte — even one leaving every array structurally
  // plausible — is caught by the always-on checksum pass.
  build_clique_index(a.gsbc, a.gsbci);
  {
    std::fstream f(a.gsbci, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(bytes - 3));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(static_cast<std::streamoff>(bytes - 3));
    f.write(&byte, 1);
  }
  EXPECT_THROW(CliqueIndex::open(a.gsbci), std::runtime_error);

  // Header counts near 2^64/8 must not wrap the expected-size arithmetic
  // into an accepted (and then out-of-bounds) mapping.
  {
    const std::string crafted = (fs::temp_directory_path() /
                                 "service_idx_crafted.gsbci")
                                    .string();
    std::ofstream f(crafted, std::ios::binary | std::ios::trunc);
    char raw[storage::kGsbciHeaderBytes] = {};
    std::memcpy(raw, storage::kGsbciMagic, sizeof(storage::kGsbciMagic));
    const std::uint32_t version = storage::kGsbciVersion;
    std::memcpy(raw + 8, &version, 4);
    const std::uint64_t huge = (1ull << 61) - 1;  // 8*(huge+0+1+0) wraps to 0
    std::memcpy(raw + 24, &huge, 8);
    const std::uint64_t empty_checksum = storage::Fnv1a{}.digest();
    std::memcpy(raw + 48, &empty_checksum, 8);
    f.write(raw, sizeof(raw));
    f.close();
    EXPECT_THROW(CliqueIndex::open(crafted), std::runtime_error);
    std::remove(crafted.c_str());
  }

  // Stale sidecar: stream rewritten, old index kept -> catalog refuses.
  build_clique_index(a.gsbc, a.gsbci);
  {
    storage::GsbcWriter writer(a.gsbc, a.graph.order());
    writer.append(std::vector<graph::VertexId>{0, 1});
    writer.close();
  }
  GraphCatalog catalog;
  EXPECT_THROW(catalog.open("g", spec_for(a)), std::runtime_error);
  // Without the sidecar the rewritten stream is fine.
  auto entry = catalog.open("g", spec_for(a, false));
  EXPECT_EQ(entry->index(), nullptr);
}

// Every record check lives in the one decoder that the forward scan and
// indexed random access share: a malformed last record fails the scan with
// a `gsbc:` error and indexed `cliques-containing` with an `error:` line.
// The index is built from the healthy stream and each case patches the
// record in place, so header, size bounds and index all still agree.
TEST(CliqueIndex, MalformedRecordsFailTypedInScanAndIndexedRead) {
  Artifacts a;
  a.graph = test::random_graph(300, 0.01, 29);
  a.gsbg = temp_path("service_malformed.gsbg");
  a.gsbc = temp_path("service_malformed.gsbc");
  a.gsbci = default_index_path(a.gsbc);
  storage::write_gsbg_file(a.graph, a.gsbg);
  {
    storage::GsbcWriter writer(a.gsbc, a.graph.order());
    writer.append(std::vector<graph::VertexId>{20, 21, 22});
    // Record 1, the last: size 11, member 0, ten deltas of 1 (12 bytes).
    writer.append(std::vector<graph::VertexId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                               10});
    writer.close();
  }
  build_clique_index(a.gsbc, a.gsbci);
  std::string healthy;
  {
    std::ifstream in(a.gsbc, std::ios::binary);
    healthy.assign(std::istreambuf_iterator<char>(in), {});
  }
  constexpr std::size_t kLast = storage::kGsbcHeaderBytes + 4;
  ASSERT_EQ(healthy.size(), kLast + 12);

  using Bytes = std::vector<unsigned char>;
  const Bytes ones(9, 0x01);
  const auto record = [](Bytes head, const Bytes& tail) {
    head.insert(head.end(), tail.begin(), tail.end());
    return head;
  };
  const std::vector<std::pair<std::string, Bytes>> cases{
      {"truncated varint", record({0x0B, 0x00}, record(ones, {0x81}))},
      {"over-long varint",
       record({0x0B, 0x00, 0x80, 0x00}, Bytes(8, 0x01))},
      {"varint past 64 bits",
       record({0x0B, 0x00}, record(Bytes(9, 0x80), {0x02}))},
      // 5 + (2^64 - 1) wraps to 4: a complete record, but not ascending.
      {"delta wrapping past 2^64",
       record({0x02, 0x05}, record(Bytes(9, 0xFF), {0x01}))},
      {"size 0", record({0x00, 0x00}, record(ones, {0x01}))},
      {"size > n", record({0xAD, 0x02, 0x00}, ones)},  // 301 > 300
      {"member >= n", record({0x0B, 0xAC, 0x02}, ones)},  // member 300
      {"zero delta",
       record({0x0B, 0x00, 0x01, 0x01, 0x01, 0x01, 0x00}, Bytes(5, 0x01))},
      {"trailing bytes in the slot",
       record({0x0A, 0x00}, record(ones, {0x01}))},
  };
  for (const auto& [name, bytes] : cases) {
    ASSERT_EQ(bytes.size(), 12u) << name;
    std::string patched = healthy;
    std::memcpy(patched.data() + kLast, bytes.data(), bytes.size());
    {
      std::ofstream out(a.gsbc, std::ios::binary | std::ios::trunc);
      out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    try {
      auto reader = storage::GsbcReader::open(a.gsbc);
      std::vector<graph::VertexId> clique;
      while (reader.next(clique)) {
      }
      ADD_FAILURE() << name << ": the scan accepted the record";
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with("gsbc: ")) << e.what();
    }
    GraphCatalog catalog;
    QueryEngine engine(catalog.open("g", spec_for(a)));
    ASSERT_NE(engine.entry().index(), nullptr);
    const std::string answer = engine.execute_line("cliques-containing 0");
    EXPECT_TRUE(answer.starts_with("error: ")) << name << ": " << answer;
    EXPECT_NE(answer.find("gsbc: "), std::string::npos) << answer;
  }
}

// An entry maps its clique stream once, when its epoch opens.  Replacing
// the `.gsbc` at the same path (GsbcWriter publishes by atomic rename)
// changes no answer of that epoch, from a fresh engine, indexed or
// rescanning; the next open is a new epoch and answers from the new file.
TEST(GraphCatalog, CliqueStreamIsPinnedToItsEpoch) {
  for (const bool with_index : {true, false}) {
    const auto a = make_artifacts(40, 0.3, 23,
                                  with_index ? "service_pin_idx"
                                             : "service_pin_scan");
    std::vector<std::string> lines;
    for (graph::VertexId v = 0; v < a.graph.order(); ++v) {
      lines.push_back("cliques-containing " + std::to_string(v));
    }
    lines.push_back("top-hubs 10");
    const auto answers = [&](std::shared_ptr<const GraphEntry> entry) {
      QueryEngine engine(std::move(entry));
      std::vector<std::string> out;
      for (const auto& line : lines) out.push_back(engine.execute_line(line));
      return out;
    };

    GraphCatalog catalog;
    const auto before =
        answers(catalog.open("reference", spec_for(a, with_index)));
    // Opened before the swap, first queried after it.
    auto pinned = catalog.open("g", spec_for(a, with_index));
    ASSERT_EQ(pinned->index() != nullptr, with_index);
    {
      storage::GsbcWriter writer(a.gsbc, a.graph.order());
      writer.append(std::vector<graph::VertexId>{0, 1});
      writer.close();
    }
    if (with_index) build_clique_index(a.gsbc, a.gsbci);
    EXPECT_EQ(answers(pinned), before) << "index " << with_index;

    auto reopened = catalog.open("g", spec_for(a, with_index));
    EXPECT_GT(reopened->epoch(), pinned->epoch());
    QueryEngine engine(reopened);
    EXPECT_EQ(engine.execute_line("cliques-containing 0"),
              "cliques-containing 0: 0 1");
    EXPECT_NE(engine.execute_line("cliques-containing 0"), before[0]);
    EXPECT_EQ(engine.execute_line("cliques-containing 2"),
              "cliques-containing 2:");
  }
}

TEST(Batch, CacheOnOffAndThreadCountsAreByteIdentical) {
  const auto a = make_artifacts(48, 0.3, 13, "service_batch");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  const auto lines = mixed_workload(a.graph);

  BatchOptions sequential;
  sequential.threads = 1;
  const auto reference = execute_batch(entry, lines, sequential);
  ASSERT_EQ(reference.responses.size(), lines.size());

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    BatchOptions options;
    options.threads = threads;
    const auto concurrent = execute_batch(entry, lines, options);
    EXPECT_EQ(concurrent.responses, reference.responses)
        << "threads " << threads;

    ResultCache cache(8u << 20);
    options.cache = &cache;
    const auto cold = execute_batch(entry, lines, options);
    EXPECT_EQ(cold.responses, reference.responses)
        << "cold cache, threads " << threads;
    const auto warm = execute_batch(entry, lines, options);
    EXPECT_EQ(warm.responses, reference.responses)
        << "warm cache, threads " << threads;
    // Second pass: every successful query replays from the cache.
    EXPECT_GT(warm.cache_hits, 0u);
    EXPECT_EQ(warm.engine.index_queries, 0u);
    EXPECT_EQ(warm.engine.stream_scans, 0u);
  }
}

TEST(Batch, RecordsOneRequestEventPerLineAtEveryThreadCount) {
  const auto a = make_artifacts(32, 0.3, 17, "service_batch_events");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  const auto lines = mixed_workload(a.graph);
  for (const std::size_t threads : {1u, 4u}) {
    ScopedTimeline timeline_on;
    BatchOptions options;
    options.threads = threads;
    execute_batch(entry, lines, options);
    std::vector<std::size_t> per_line(lines.size());
    for (const obs::TimelineEvent& event :
         obs::TimelineJournal::global().snapshot().events) {
      if (event.kind != obs::TimelineEventKind::kRequest) continue;
      ASSERT_LT(event.id, lines.size());
      ++per_line[event.id];
      EXPECT_EQ(std::string_view(event.label),
                std::string_view(lines[event.id])
                    .substr(0, obs::TimelineEvent::kLabelChars));
    }
    EXPECT_EQ(per_line, std::vector<std::size_t>(lines.size(), 1))
        << "threads " << threads;
  }
}

TEST(ResultCache, LruEvictionRespectsByteBudget) {
  util::MemoryTracker tracker;
  const std::size_t budget = 4096;
  ResultCache cache(budget, &tracker);
  const std::string value(200, 'x');
  for (int i = 0; i < 200; ++i) {
    cache.insert(1, "query " + std::to_string(i), value);
    EXPECT_LE(cache.stats().bytes, budget);
    EXPECT_EQ(tracker.current(util::MemTag::kResultCache),
              cache.stats().bytes);
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_LE(stats.bytes, budget);
  // Oldest entries evicted, newest resident.
  EXPECT_FALSE(cache.lookup(1, "query 0").has_value());
  EXPECT_TRUE(cache.lookup(1, "query 199").has_value());

  // Recency refresh: touching an old entry saves it from eviction.
  ResultCache lru(3 * (ResultCache::kEntryOverhead + 16 + 64));
  const std::string small(64, 'y');
  lru.insert(1, "a", small);
  lru.insert(1, "b", small);
  lru.insert(1, "c", small);
  ASSERT_TRUE(lru.lookup(1, "a").has_value());  // refresh a
  lru.insert(1, "d", small);                    // evicts b, not a
  EXPECT_TRUE(lru.lookup(1, "a").has_value());
  EXPECT_FALSE(lru.lookup(1, "b").has_value());

  // An entry bigger than the whole budget is not cached at all.
  ResultCache tiny(128, &tracker);
  tiny.insert(1, "huge", std::string(4096, 'z'));
  EXPECT_EQ(tiny.stats().entries, 0u);
  EXPECT_FALSE(tiny.lookup(1, "huge").has_value());
}

TEST(ResultCache, EpochsIsolateReloadedGraphs) {
  ResultCache cache(1u << 20);
  cache.insert(7, "degree 1", "degree 1: 3");
  EXPECT_TRUE(cache.lookup(7, "degree 1").has_value());
  EXPECT_FALSE(cache.lookup(8, "degree 1").has_value());
}

TEST(GraphCatalog, NamesEpochsAndRefCounts) {
  const auto a = make_artifacts(24, 0.3, 17, "service_catalog");
  GraphCatalog catalog;
  auto first = catalog.open("g", spec_for(a));
  EXPECT_EQ(catalog.names(), std::vector<std::string>{"g"});
  EXPECT_EQ(catalog.external_refs("g"), 1u);
  {
    auto handle = catalog.get("g");
    EXPECT_EQ(handle.get(), first.get());
    EXPECT_EQ(catalog.external_refs("g"), 2u);
  }
  EXPECT_EQ(catalog.external_refs("g"), 1u);

  // Reopening bumps the epoch; the old handle stays valid and answers.
  auto second = catalog.open("g", spec_for(a));
  EXPECT_GT(second->epoch(), first->epoch());
  EXPECT_NE(second.get(), first.get());
  QueryEngine old_engine(first);
  EXPECT_TRUE(old_engine.execute_line("degree 0").starts_with("degree 0:"));

  EXPECT_TRUE(catalog.close("g"));
  EXPECT_FALSE(catalog.close("g"));
  EXPECT_TRUE(catalog.names().empty());
  // Entries owned only by handles still serve queries.
  QueryEngine engine(second);
  EXPECT_TRUE(engine.execute_line("degree 0").starts_with("degree 0:"));

  // Mismatched artifacts are rejected whole.
  const auto b = make_artifacts(25, 0.3, 18, "service_catalog_b");
  GraphSpec bad = spec_for(a);
  bad.cliques_path = b.gsbc;  // universe 25 != graph order 24
  EXPECT_THROW(catalog.open("bad", bad), std::runtime_error);
}

TEST(Serve, StreamSessionMatchesBatchAtEveryThreadCount) {
  // stdin answers every line in order on one thread; its query responses
  // are the batch executor's bytes at every thread count.
  const auto a = make_artifacts(40, 0.3, 23, "service_stream");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  std::vector<std::string> lines = mixed_workload(a.graph);

  std::string script = "ping\n";
  for (const auto& line : lines) script += line + '\n';
  script += "shutdown\n";
  script += "degree 1\n";  // after shutdown: still answered (drain), then stop
  std::istringstream in(script);
  std::ostringstream out;
  const auto stats = serve_stream(entry, in, out, {});
  EXPECT_TRUE(stats.shutdown_requested);
  EXPECT_EQ(stats.requests, lines.size() + 3);

  lines.push_back("degree 1");
  for (const std::size_t threads : {1u, 2u, 4u}) {
    BatchOptions options;
    options.threads = threads;
    const auto batch = execute_batch(entry, lines, options);
    std::string expected = "ok pong\n";
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      expected += batch.responses[i] + '\n';
    }
    expected += "ok shutdown\n" + batch.responses.back() + '\n';
    EXPECT_EQ(out.str(), expected) << "threads " << threads;
  }
}

TEST(Serve, StreamSessionBytesAreIdenticalWithMetricsOnAndOff) {
  // The instrumentation contract: enabling metrics and tracing changes no
  // query response byte.  (The `stats` request is excluded — uptime and
  // RSS are nondeterministic by design.)
  const auto a = make_artifacts(36, 0.3, 31, "service_stream_obs");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));

  std::string script = "ping\n";
  for (const auto& line : mixed_workload(a.graph)) script += line + '\n';
  script += "shutdown\n";

  auto run = [&] {
    std::istringstream in(script);
    std::ostringstream out;
    serve_stream(entry, in, out, {});
    return out.str();
  };
  const std::string reference = run();
  std::string instrumented;
  {
    ScopedObservability obs_on;
    // Log every request too.
    obs::TimelineJournal::global().requests().set_slow_log_micros(1);
    instrumented = run();
  }
  EXPECT_EQ(instrumented, reference);
}

TEST(Serve, StreamStatsLineCarriesUptimeAndRss) {
  const auto a = make_artifacts(24, 0.3, 37, "service_stream_stats");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  std::istringstream in("stats\nshutdown\n");
  std::ostringstream out;
  serve_stream(entry, in, out, {});
  const std::string output = out.str();
  EXPECT_NE(output.find("ok stats: requests="), std::string::npos) << output;
  EXPECT_NE(output.find(" uptime_seconds="), std::string::npos) << output;
  EXPECT_NE(output.find(" rss_bytes="), std::string::npos) << output;
}

TEST(Serve, MetricsRequestIsRejectedWhenDisabled) {
  const auto a = make_artifacts(24, 0.3, 53, "service_stream_obs_off");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  std::istringstream in("metrics\nshutdown\n");
  std::ostringstream out;
  serve_stream(entry, in, out, {});
  EXPECT_NE(out.str().find("error: metrics disabled (serve with --metrics)"),
            std::string::npos)
      << out.str();
}

TEST(Serve, MetricsRequestRendersPromOverStream) {
  ScopedObservability obs_on;
  const auto a = make_artifacts(24, 0.3, 59, "service_stream_obs_on");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  std::istringstream in("degree 1\nmetrics\nmetrics json\nshutdown\n");
  std::ostringstream out;
  serve_stream(entry, in, out, {});
  std::istringstream lines(out.str());
  std::string degree_line, prom_line, json_line;
  std::getline(lines, degree_line);
  std::getline(lines, prom_line);
  std::getline(lines, json_line);
  ASSERT_TRUE(prom_line.starts_with("ok metrics prom ")) << prom_line;
  const std::string text =
      obs::unescape_multiline(prom_line.substr(sizeof("ok metrics prom ") - 1));
  EXPECT_NE(text.find("# TYPE gsb_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("gsb_requests_total{transport=\"stream\"}"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  ASSERT_TRUE(json_line.starts_with("ok metrics json {")) << json_line;
  EXPECT_NE(json_line.find("\"counters\""), std::string::npos);
}

TEST(Serve, EveryStreamRequestReachesTheSlowestBuffer) {
  ScopedObservability obs_on;
  const auto a = make_artifacts(24, 0.3, 59, "service_stream_traces");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  std::string script;
  for (int v = 0; v < 40; ++v) {
    script += "degree " + std::to_string(v % 24) + '\n';
  }
  script += "metrics traces\nmetrics\nshutdown\n";
  std::istringstream in(script);
  std::ostringstream out;
  serve_stream(entry, in, out, {});
  std::istringstream lines(out.str());
  std::string line, traces_line, prom_line;
  for (int i = 0; i < 40; ++i) std::getline(lines, line);
  std::getline(lines, traces_line);
  std::getline(lines, prom_line);
  ASSERT_TRUE(traces_line.starts_with("ok metrics traces [{")) << traces_line;
  EXPECT_NE(traces_line.find("\"transport\":\"stream\""), std::string::npos);
  EXPECT_EQ(traces_line.find("\"transport\":\"batch\""), std::string::npos);
  const std::string text =
      obs::unescape_multiline(prom_line.substr(sizeof("ok metrics prom ") - 1));
  EXPECT_NE(text.find("\ngsb_traces_retained 32\n"), std::string::npos);
}

TEST(Serve, ProfileCapturesBoundedWindowOverStream) {
  const auto a = make_artifacts(24, 0.3, 61, "service_stream_profile");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  std::istringstream in(
      "profile\nprofile start\ndegree 1\ndegree 2\nprofile stop\n"
      "profile bogus\nshutdown\n");
  std::ostringstream out;
  serve_stream(entry, in, out, {});
  std::istringstream lines(out.str());
  std::string status, started, d1, d2, stopped, bogus;
  std::getline(lines, status);
  std::getline(lines, started);
  std::getline(lines, d1);
  std::getline(lines, d2);
  std::getline(lines, stopped);
  std::getline(lines, bogus);
  EXPECT_EQ(status, "ok profile: enabled=0 events=0 dropped=0");
  EXPECT_EQ(started, "ok profile started");
  ASSERT_TRUE(stopped.starts_with("ok profile {")) << stopped;
  EXPECT_NE(stopped.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(stopped.find("\"cat\":\"request\""), std::string::npos);
  EXPECT_NE(stopped.find("\"name\":\"degree 1\""), std::string::npos);
  EXPECT_EQ(stopped.find('\n'), std::string::npos);  // one-line payload
  EXPECT_TRUE(bogus.starts_with("error: unknown profile verb")) << bogus;
  EXPECT_FALSE(obs::TimelineJournal::global().enabled());  // stop disables
  obs::TimelineJournal::global().reset();
}

TEST(Serve, StreamSessionBytesAreIdenticalWithTimelineOnAndOff) {
  const auto a = make_artifacts(36, 0.3, 67, "service_stream_timeline");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  std::string script = "ping\n";
  for (const auto& line : mixed_workload(a.graph)) script += line + '\n';
  script += "shutdown\n";
  auto run = [&] {
    std::istringstream in(script);
    std::ostringstream out;
    serve_stream(entry, in, out, {});
    return out.str();
  };
  const std::string reference = run();
  std::string profiled;
  {
    ScopedTimeline timeline_on;
    profiled = run();
    EXPECT_FALSE(obs::TimelineJournal::global().snapshot().events.empty());
  }
  EXPECT_EQ(profiled, reference);
}

#if defined(__linux__)
TEST(Serve, UnixSocketSessionAnswersAndShutsDown) {
  const auto a = make_artifacts(32, 0.3, 29, "service_socket");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  const std::string socket_path = temp_path("service_socket.sock");
  std::remove(socket_path.c_str());

  TcpServerOptions options;
  options.threads = 2;
  TcpServer listener(entry, socket_path, options);
  TcpServeStats stats;
  std::thread server([&] { stats = listener.serve(); });

  // Connect (retrying while the server binds), run one session.
  int fd = -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  auto connect_client = [&]() -> int {
    for (int attempt = 0; attempt < 100; ++attempt) {
      const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (client < 0) return -1;
      if (::connect(client, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return client;
      }
      ::close(client);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
  };

  // First connection: a final request with no trailing newline, delivered
  // by half-closing the write side — it must still be answered.
  const int eof_fd = connect_client();
  ASSERT_GE(eof_fd, 0) << "could not connect to " << socket_path;
  const std::string unterminated = "degree 3";
  ASSERT_EQ(::write(eof_fd, unterminated.data(), unterminated.size()),
            static_cast<ssize_t>(unterminated.size()));
  ::shutdown(eof_fd, SHUT_WR);
  std::string eof_response;
  char eof_chunk[256];
  while (true) {
    const ssize_t n = ::read(eof_fd, eof_chunk, sizeof(eof_chunk));
    if (n <= 0) break;
    eof_response.append(eof_chunk, static_cast<std::size_t>(n));
  }
  ::close(eof_fd);

  fd = connect_client();
  ASSERT_GE(fd, 0) << "could not connect to " << socket_path;

  // A query pipelined *after* shutdown in the same write must still be
  // answered before the connection closes (drain-then-stop, matching the
  // stream transport).
  const std::string request = "ping\ndegree 3\nneighbors 3\nshutdown\ndegree 5\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[512];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();

  QueryEngine reference(entry);
  EXPECT_EQ(eof_response, reference.execute_line("degree 3") + "\n");
  EXPECT_EQ(response, "ok pong\n" + reference.execute_line("degree 3") +
                          "\n" + reference.execute_line("neighbors 3") +
                          "\nok shutdown\n" +
                          reference.execute_line("degree 5") + "\n");
  EXPECT_TRUE(stats.shutdown_requested);
  EXPECT_EQ(stats.connections, 2u);
  EXPECT_EQ(stats.requests, 6u);
}

/// Connects to a Unix-socket server, retrying while it binds.
int connect_unix_retrying(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

// Regression: a client that floods requests and closes without reading
// used to kill the whole server with SIGPIPE (raw ::write without
// MSG_NOSIGNAL).  Now only that connection dies; the server keeps
// serving.
TEST(Serve, SurvivesClientDisconnectMidResponse) {
  const auto a = make_artifacts(48, 0.35, 31, "service_midrop");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  const std::string socket_path = temp_path("service_midrop.sock");
  std::remove(socket_path.c_str());

  TcpServerOptions options;
  options.threads = 2;
  TcpServer listener(entry, socket_path, options);
  TcpServeStats stats;
  std::thread server([&] { stats = listener.serve(); });

  // Flood: thousands of pipelined requests, then an immediate close —
  // never reading a byte, so the server's writes hit a dead peer.
  const int flood_fd = connect_unix_retrying(socket_path);
  ASSERT_GE(flood_fd, 0) << "could not connect to " << socket_path;
  std::string flood;
  for (int i = 0; i < 5000; ++i) {
    flood += "neighbors " + std::to_string(i % 48) + "\n";
  }
  // A partial write is fine — the point is closing with responses owed.
  (void)::write(flood_fd, flood.data(), flood.size());
  ::close(flood_fd);

  // The server must still answer a fresh connection.
  const int fd = connect_unix_retrying(socket_path);
  ASSERT_GE(fd, 0);
  const std::string request = "ping\nshutdown\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[256];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();
  EXPECT_EQ(response, "ok pong\nok shutdown\n");
  EXPECT_TRUE(stats.shutdown_requested);
}

namespace {
void noop_signal_handler(int) {}
}  // namespace

// Regression: the serve loop's signal handlers are installed without
// SA_RESTART, so any signal makes blocked poll/read/send return EINTR.
// That used to abort the connection mid-session, silently dropping or
// truncating responses; now the loops retry and every response arrives
// complete and byte-identical.
TEST(Serve, SignalsDuringBlockedIoDropNoResponses) {
  const auto a = make_artifacts(40, 0.35, 37, "service_eintr");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  const std::string socket_path = temp_path("service_eintr.sock");
  std::remove(socket_path.c_str());

  // SA_RESTART deliberately absent, matching the CLI's serve handlers.
  struct sigaction action{};
  action.sa_handler = noop_signal_handler;
  sigemptyset(&action.sa_mask);
  struct sigaction previous{};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  std::vector<std::string> lines;
  for (int round = 0; round < 3; ++round) {
    for (const auto& line : mixed_workload(a.graph)) lines.push_back(line);
  }

  TcpServerOptions options;
  options.threads = 2;
  // Admission control is not under test: every request gets its answer.
  options.max_pipeline = lines.size() + 1;
  TcpServer listener(entry, socket_path, options);
  TcpServeStats stats;
  // The server thread (and the worker threads it starts) keep SIGUSR1
  // unblocked; the test thread blocks it before spawning the signaler, so
  // every kill() below lands on a server thread's blocked syscall.
  std::thread server([&] { stats = listener.serve(); });
  sigset_t usr1;
  sigemptyset(&usr1);
  sigaddset(&usr1, SIGUSR1);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &usr1, nullptr), 0);

  std::atomic<bool> stop_signals{false};
  std::thread signaler([&] {
    while (!stop_signals.load(std::memory_order_relaxed)) {
      ::kill(::getpid(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  const int fd = connect_unix_retrying(socket_path);
  ASSERT_GE(fd, 0) << "could not connect to " << socket_path;
  std::string request;
  for (const auto& line : lines) request += line + '\n';
  request += "shutdown\n";
  std::size_t sent = 0;  // the raw client retries its own EINTRs
  while (sent < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + sent, request.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();
  stop_signals.store(true, std::memory_order_relaxed);
  signaler.join();
  ASSERT_EQ(pthread_sigmask(SIG_UNBLOCK, &usr1, nullptr), 0);
  ::sigaction(SIGUSR1, &previous, nullptr);

  QueryEngine reference(entry);
  std::string expected;
  for (const auto& line : lines) {
    expected += reference.execute_line(line) + '\n';
  }
  expected += "ok shutdown\n";
  EXPECT_EQ(response, expected);
  EXPECT_TRUE(stats.shutdown_requested);
  EXPECT_EQ(stats.requests, lines.size() + 1);
}
TEST(Serve, UnixSocketAnswersMetricsRequests) {
  ScopedObservability obs_on;
  const auto a = make_artifacts(28, 0.3, 67, "service_socket_obs");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  const std::string socket_path = temp_path("service_socket_obs.sock");
  std::remove(socket_path.c_str());

  TcpServer listener(entry, socket_path);
  TcpServeStats stats;
  std::thread server([&] { stats = listener.serve(); });
  const int fd = connect_unix_retrying(socket_path);
  ASSERT_GE(fd, 0) << "could not connect to " << socket_path;
  const std::string request = "degree 2\nmetrics prom\nmetrics json\nshutdown\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();

  std::istringstream lines(response);
  std::string degree_line, prom_line, json_line;
  std::getline(lines, degree_line);
  std::getline(lines, prom_line);
  std::getline(lines, json_line);
  ASSERT_TRUE(prom_line.starts_with("ok metrics prom ")) << prom_line;
  const std::string text =
      obs::unescape_multiline(prom_line.substr(sizeof("ok metrics prom ") - 1));
  EXPECT_NE(text.find("gsb_requests_total{transport=\"unix\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gsb_socket_write_microseconds_bucket"),
            std::string::npos);
  ASSERT_TRUE(json_line.starts_with("ok metrics json {")) << json_line;
  EXPECT_TRUE(stats.shutdown_requested);
}

// The socket file is shared with other processes, so a Unix listener
// refuses a path it cannot own: one too long for sun_path, an existing
// file that is not a socket, or a socket a live server accepts on.
TEST(Serve, UnixListenerRefusesForeignAndLivePaths) {
  const auto a = make_artifacts(16, 0.3, 83, "service_socket_refuse");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));

  const std::string too_long =
      "/tmp/" + std::string(sizeof(sockaddr_un{}.sun_path), 'x');
  EXPECT_THROW(TcpServer server(entry, too_long), std::runtime_error);

  const std::string regular = temp_path("service_socket_regular.sock");
  {
    std::ofstream file(regular);
    file << "not a socket\n";
  }
  EXPECT_THROW(TcpServer server(entry, regular), std::runtime_error);
  struct stat st{};
  ASSERT_EQ(::stat(regular.c_str(), &st), 0) << "a non-socket was deleted";
  EXPECT_TRUE(S_ISREG(st.st_mode));
  std::remove(regular.c_str());

  const std::string live_path = temp_path("service_socket_live.sock");
  std::remove(live_path.c_str());
  TcpServer live(entry, live_path);
  TcpServeStats stats;
  std::thread server([&] { stats = live.serve(); });
  EXPECT_THROW(TcpServer server(entry, live_path), std::runtime_error);
  auto client = ServiceClient::connect_unix(live_path);
  EXPECT_EQ(client.request("ping"), "ok pong");  // the live one kept its path
  EXPECT_EQ(client.request("shutdown"), "ok shutdown");
  server.join();
  EXPECT_TRUE(stats.shutdown_requested);
}

// A socket file nobody accepts on is stale and is replaced; at exit a
// listener removes the file only while it is still the inode it bound.
TEST(Serve, UnixListenerReplacesStaleFileAndRemovesOnlyItsOwn) {
  const auto a = make_artifacts(16, 0.3, 89, "service_socket_stale");
  GraphCatalog catalog;
  auto entry = catalog.open("g", spec_for(a));
  const std::string path = temp_path("service_socket_stale.sock");
  std::remove(path.c_str());

  // A socket file left behind by a process that died without unlinking.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  auto bind_stale = [&] {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ::close(fd);
  };
  bind_stale();

  struct stat st{};
  {
    TcpServer server(entry, path);
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    EXPECT_TRUE(S_ISSOCK(st.st_mode));
  }
  EXPECT_NE(::stat(path.c_str(), &st), 0) << "own socket file left behind";

  {
    TcpServer server(entry, path);
    // A newer owner replaces the file while this server is still up.
    ASSERT_EQ(::unlink(path.c_str()), 0);
    bind_stale();
  }
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << "removed a file it did not bind";
  std::remove(path.c_str());
}
#endif  // defined(__linux__)

TEST(WireProtocol, FramesRoundTripAndRejectMalformedInput) {
  std::string buf;
  wire::encode_request(buf, 42, "degree 7");
  wire::encode_request(buf, 43, "");
  std::size_t consumed = 0;
  std::uint64_t id = 0;
  std::string payload;
  ASSERT_EQ(wire::decode_request(buf, consumed, id, payload),
            wire::DecodeResult::kFrame);
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(payload, "degree 7");
  buf.erase(0, consumed);
  ASSERT_EQ(wire::decode_request(buf, consumed, id, payload),
            wire::DecodeResult::kFrame);
  EXPECT_EQ(id, 43u);
  EXPECT_TRUE(payload.empty());
  buf.erase(0, consumed);
  EXPECT_EQ(wire::decode_request(buf, consumed, id, payload),
            wire::DecodeResult::kNeedMore);

  std::string response;
  wire::encode_response(response, wire::Status::kBusy, 7, "busy: x");
  // Byte-by-byte prefixes of a valid frame all say "need more".
  for (std::size_t len = 0; len < response.size(); ++len) {
    wire::Status status{};
    EXPECT_EQ(wire::decode_response(std::string_view(response).substr(0, len),
                                    consumed, status, id, payload),
              wire::DecodeResult::kNeedMore)
        << "prefix " << len;
  }
  wire::Status status{};
  ASSERT_EQ(wire::decode_response(response, consumed, status, id, payload),
            wire::DecodeResult::kFrame);
  EXPECT_EQ(status, wire::Status::kBusy);
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(payload, "busy: x");

  EXPECT_EQ(wire::decode_request("degree 7\n", consumed, id, payload),
            wire::DecodeResult::kMalformed);  // line bytes are not a frame
  std::string oversized;
  wire::encode_request(oversized, 1, "x");
  oversized[9] = '\xff';  // length field far beyond kMaxPayloadBytes
  oversized[10] = '\xff';
  oversized[11] = '\xff';
  oversized[12] = '\xff';
  EXPECT_EQ(wire::decode_request(oversized, consumed, id, payload),
            wire::DecodeResult::kMalformed);

  EXPECT_EQ(wire::status_for_response("degree 3: 4"), wire::Status::kOk);
  EXPECT_EQ(wire::status_for_response("error: nope"), wire::Status::kError);
  EXPECT_EQ(wire::status_for_response("busy: later"), wire::Status::kBusy);
}

#if defined(__linux__)

/// One socket server serving on a background thread: TCP on an ephemeral
/// port by default, or a Unix listener when \p listen is a path.
struct TcpFixture {
  GraphCatalog catalog;
  std::shared_ptr<const GraphEntry> entry;
  std::optional<TcpServer> server;
  std::thread thread;
  TcpServeStats stats;
  std::string socket_path;  ///< empty on TCP

  TcpFixture(const Artifacts& a, TcpServerOptions options = {},
             bool with_reload = false, const GraphSpec* spec = nullptr,
             const std::string& listen = "127.0.0.1:0") {
    entry = catalog.open("g", spec_for(a));
    if (with_reload) {
      GraphSpec reload_spec = spec != nullptr ? *spec : spec_for(a);
      options.reload = [this, reload_spec] {
        return catalog.open("g", reload_spec);
      };
    }
    if (listen.find('/') != std::string::npos) socket_path = listen;
    server.emplace(entry, listen, options);
    thread = std::thread([this] { stats = server->serve(); });
  }

  [[nodiscard]] std::string address() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }

  [[nodiscard]] ServiceClient connect() const {
    return socket_path.empty() ? ServiceClient::connect_tcp(address())
                               : ServiceClient::connect_unix(socket_path);
  }

  void join() { thread.join(); }

  ~TcpFixture() {
    if (thread.joinable()) {
      try {
        connect().request("shutdown");
      } catch (const std::exception&) {
      }
      thread.join();
    }
  }
};

TEST(TcpServe, LineProtocolMatchesBatchAcrossThreadCountsAndReportsStats) {
  const auto a = make_artifacts(48, 0.3, 41, "service_tcp_line");
  auto lines = mixed_workload(a.graph);
  // One line several times the per-tick read, so it arrives over many
  // reads before its newline does.
  std::string long_line = "induced-subgraph";
  for (int round = 0; round < 60; ++round) {
    for (graph::VertexId v = 0; v < 48; ++v) {
      long_line += ' ' + std::to_string(v);
    }
  }
  lines.push_back(long_line);

  GraphCatalog reference_catalog;
  auto reference_entry = reference_catalog.open("g", spec_for(a));
  BatchOptions sequential;
  sequential.threads = 1;
  const auto reference = execute_batch(reference_entry, lines, sequential);

  for (const std::size_t threads : {1u, 4u}) {
    TcpServerOptions options;
    options.threads = threads;
    TcpFixture fx(a, options);

    auto client = ServiceClient::connect_tcp(fx.address());
    EXPECT_EQ(client.request("ping"), "ok pong");
    EXPECT_EQ(client.request_pipelined(lines), reference.responses)
        << "threads " << threads;

    const std::string stats_line = client.request("stats");
    EXPECT_TRUE(stats_line.starts_with("ok stats:")) << stats_line;
    EXPECT_NE(stats_line.find(" backlog="), std::string::npos) << stats_line;
    EXPECT_NE(stats_line.find(" accept_errors=0"), std::string::npos)
        << stats_line;
    EXPECT_NE(stats_line.find(" epoch="), std::string::npos) << stats_line;
    EXPECT_NE(stats_line.find(" uptime_seconds="), std::string::npos)
        << stats_line;
    EXPECT_NE(stats_line.find(" rss_bytes="), std::string::npos)
        << stats_line;

    EXPECT_EQ(client.request("shutdown"), "ok shutdown");
    fx.join();
    EXPECT_TRUE(fx.stats.shutdown_requested);
    EXPECT_EQ(fx.stats.requests, lines.size() + 3);
    EXPECT_EQ(fx.stats.protocol_errors, 0u);
  }
}

TEST(TcpServe, BinaryPipeliningMatchesLineBytesAndPreservesIdOrder) {
  const auto a = make_artifacts(44, 0.3, 43, "service_tcp_bin");
  const auto lines = mixed_workload(a.graph);

  GraphCatalog reference_catalog;
  auto reference_entry = reference_catalog.open("g", spec_for(a));
  BatchOptions sequential;
  sequential.threads = 1;
  const auto reference = execute_batch(reference_entry, lines, sequential);

  const std::string socket_path = temp_path("service_tcp_bin.sock");
  std::remove(socket_path.c_str());
  for (const std::string& listen : {std::string("127.0.0.1:0"), socket_path}) {
    SCOPED_TRACE(listen);
    TcpServerOptions options;
    options.threads = 3;
    TcpFixture fx(a, options, false, nullptr, listen);

    EXPECT_EQ(fx.connect().request_pipelined(lines), reference.responses);

    auto client = fx.connect();
    const auto responses = client.call_pipelined(lines);
    ASSERT_EQ(responses.size(), lines.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      EXPECT_EQ(responses[i].id, i + 1) << "response " << i;
      EXPECT_EQ(responses[i].payload, reference.responses[i]) << lines[i];
      EXPECT_EQ(responses[i].status,
                reference.responses[i].starts_with("error:")
                    ? wire::Status::kError
                    : wire::Status::kOk)
          << lines[i];
    }

    // Control requests answer on the binary framing too.
    const auto pong = client.call_pipelined({"ping"});
    ASSERT_EQ(pong.size(), 1u);
    EXPECT_EQ(pong[0].payload, "ok pong");

    EXPECT_EQ(client.call_pipelined({"shutdown"})[0].payload, "ok shutdown");
    fx.join();
    EXPECT_EQ(fx.stats.protocol_errors, 0u);
  }
}

TEST(TcpServe, AdmissionControlAnswersTypedBusyInFifoOrder) {
  const auto a = make_artifacts(40, 0.3, 47, "service_tcp_busy");
  TcpServerOptions options;
  options.threads = 1;
  options.max_pipeline = 1;  // one executing + one queued, rest -> busy
  TcpFixture fx(a, options);

  QueryEngine reference(fx.entry);
  const std::string expected = reference.execute_line("top-hubs 5");

  auto client = ServiceClient::connect_tcp(fx.address());
  const std::size_t burst = 200;
  const auto responses = client.call_pipelined(
      std::vector<std::string>(burst, "top-hubs 5"));
  ASSERT_EQ(responses.size(), burst);
  std::size_t busy = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].id, i + 1) << "busy responses must keep FIFO order";
    if (responses[i].status == wire::Status::kBusy) {
      ++busy;
      EXPECT_TRUE(responses[i].payload.starts_with("busy:"))
          << responses[i].payload;
    } else {
      EXPECT_EQ(responses[i].status, wire::Status::kOk);
      EXPECT_EQ(responses[i].payload, expected);
    }
  }
  EXPECT_GT(busy, 0u);
  EXPECT_LT(busy, burst);  // the accepted requests all answered correctly

  // The first byte committed this connection to binary framing for good.
  EXPECT_EQ(client.call_pipelined({"shutdown"})[0].payload, "ok shutdown");
  fx.join();
  EXPECT_EQ(fx.stats.busy_rejections, busy);
}

TEST(TcpServe, HotReloadUnderConcurrentLoadMixesNoEpochs) {
  const auto a = make_artifacts(44, 0.3, 53, "service_tcp_reload");
  const auto lines = mixed_workload(a.graph);

  GraphCatalog reference_catalog;
  auto reference_entry = reference_catalog.open("g", spec_for(a));
  BatchOptions sequential;
  sequential.threads = 1;
  const auto reference = execute_batch(reference_entry, lines, sequential);

  ResultCache cache(8u << 20);
  TcpServerOptions options;
  options.threads = 4;
  options.cache = &cache;
  TcpFixture fx(a, options, /*with_reload=*/true);

  // Four clients hammer the full workload while reloads swap epochs
  // underneath them; every response must stay byte-identical.
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      auto client = ServiceClient::connect_tcp(fx.address());
      for (int round = 0; round < 6; ++round) {
        const auto responses = client.request_pipelined(lines);
        if (responses != reference.responses) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  auto control = ServiceClient::connect_tcp(fx.address());
  std::uint64_t last_epoch = 0;
  for (int r = 0; r < 5; ++r) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::string response = control.request("reload");
    ASSERT_TRUE(response.starts_with("ok reload epoch=")) << response;
    const std::uint64_t epoch =
        std::stoull(response.substr(std::strlen("ok reload epoch=")));
    EXPECT_GT(epoch, last_epoch);
    last_epoch = epoch;
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);

  control.request("shutdown");
  fx.join();
  EXPECT_EQ(fx.stats.reloads, 5u);
  EXPECT_EQ(fx.stats.protocol_errors, 0u);
  EXPECT_EQ(fx.stats.busy_rejections, 0u);
}

TEST(TcpServe, SurvivesClientDisconnectMidResponse) {
  const auto a = make_artifacts(48, 0.35, 59, "service_tcp_drop");
  TcpServerOptions options;
  options.threads = 2;
  TcpFixture fx(a, options);

  {
    // Flood pipelined requests and vanish without reading a byte.
    auto flood = ServiceClient::connect_tcp(fx.address());
    for (int i = 0; i < 5000; ++i) {
      flood.send("neighbors " + std::to_string(i % 48));
    }
    try {
      flood.flush();  // the server may drop us mid-flood — that's the point
    } catch (const std::exception&) {
    }
    flood.close();
  }

  // The server keeps serving fresh connections with correct bytes.
  QueryEngine reference(fx.entry);
  auto client = ServiceClient::connect_tcp(fx.address());
  EXPECT_EQ(client.request("degree 3"), reference.execute_line("degree 3"));
  EXPECT_EQ(client.request("shutdown"), "ok shutdown");
  fx.join();
  EXPECT_TRUE(fx.stats.shutdown_requested);
}

TEST(TcpServe, MalformedBinaryFrameClosesOnlyThatConnection) {
  const auto a = make_artifacts(32, 0.3, 61, "service_tcp_malformed");
  TcpFixture fx(a);

  {
    // Hand-crafted garbage: the 0x01 sniff byte commits the connection
    // to binary framing, then the length field claims ~4 GB — far past
    // the 64 MB frame bound, a protocol error.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    std::string junk(1, '\x01');
    junk.append(8, '\x00');  // request id
    junk.append(4, '\xff');  // payload length 0xffffffff
    ASSERT_EQ(::write(fd, junk.data(), junk.size()),
              static_cast<ssize_t>(junk.size()));
    // The server answers one typed error frame, then closes this
    // connection (EOF) without touching any other.
    std::string raw;
    char chunk[256];
    while (true) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) break;
      raw.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    std::size_t consumed = 0;
    wire::Status status{};
    std::uint64_t id = 0;
    std::string payload;
    ASSERT_EQ(wire::decode_response(raw, consumed, status, id, payload),
              wire::DecodeResult::kFrame);
    EXPECT_EQ(status, wire::Status::kError);
    EXPECT_EQ(payload, "error: malformed frame");
    EXPECT_EQ(consumed, raw.size());  // nothing after the error frame
  }

  auto probe = ServiceClient::connect_tcp(fx.address());
  EXPECT_EQ(probe.request("ping"), "ok pong");
  EXPECT_EQ(probe.request("shutdown"), "ok shutdown");
  fx.join();
  EXPECT_EQ(fx.stats.protocol_errors, 1u);
}

TEST(TcpServe, OverlongLineClosesOnlyThatConnection) {
  const auto a = make_artifacts(32, 0.3, 67, "service_tcp_overlong");
  TcpFixture fx(a);
  auto other = ServiceClient::connect_tcp(fx.address());
  EXPECT_EQ(other.request("ping"), "ok pong");

  {
    // A line that never ends: one byte past the binary payload bound and
    // no newline.  Every byte is read, so the server's close is a clean
    // EOF after its one typed error line.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    // Without the bound the server never answers: fail, do not hang.
    const timeval wait{60, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &wait, sizeof(wait)),
              0);
    const std::string chunk(1u << 20, 'x');
    const std::size_t total = wire::kMaxPayloadBytes + 1;
    for (std::size_t sent = 0; sent < total;) {
      const ssize_t n = ::send(fd, chunk.data(),
                               std::min(chunk.size(), total - sent),
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
    std::string raw;
    char buf[256];
    while (true) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n <= 0) break;
      raw.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(raw, "error: request line too long\n");
  }

  // The connection that was open all along is still answered.
  EXPECT_EQ(other.request("degree 3"),
            QueryEngine(fx.entry).execute_line("degree 3"));
  EXPECT_EQ(other.request("shutdown"), "ok shutdown");
  fx.join();
  EXPECT_EQ(fx.stats.protocol_errors, 1u);
}

TEST(TcpServe, MetricsOnLeavesResponsesByteIdenticalAndScrapes) {
  const auto a = make_artifacts(44, 0.3, 71, "service_tcp_obs");
  const auto lines = mixed_workload(a.graph);

  // Reference computed with instrumentation off.
  GraphCatalog reference_catalog;
  auto reference_entry = reference_catalog.open("g", spec_for(a));
  BatchOptions sequential;
  sequential.threads = 1;
  const auto reference = execute_batch(reference_entry, lines, sequential);

  ScopedObservability obs_on;
  TcpServerOptions options;
  options.threads = 3;
  TcpFixture fx(a, options);

  auto client = ServiceClient::connect_tcp(fx.address());
  EXPECT_EQ(client.request_pipelined(lines), reference.responses)
      << "metrics on changed response bytes";

  // Line-protocol scrape: all three formats answer.
  const std::string prom = client.request("metrics");
  ASSERT_TRUE(prom.starts_with("ok metrics prom ")) << prom;
  const std::string text =
      obs::unescape_multiline(prom.substr(sizeof("ok metrics prom ") - 1));
  EXPECT_NE(text.find("# TYPE gsb_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gsb_requests_total{transport=\"tcp\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gsb_request_duration_microseconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(text.find("gsb_uptime_seconds"), std::string::npos);
  const std::string json = client.request("metrics json");
  ASSERT_TRUE(json.starts_with("ok metrics json {")) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  const std::string traces = client.request("metrics traces");
  EXPECT_TRUE(traces.starts_with("ok metrics traces [{")) << traces;
  EXPECT_NE(traces.find("\"transport\":\"tcp\""), std::string::npos);

  // The binary framing carries the identical payload with kOk status (on
  // its own connection: the first byte commits a connection's framing).
  auto binary_client = ServiceClient::connect_tcp(fx.address());
  const auto frames = binary_client.call_pipelined({"metrics json"});
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].status, wire::Status::kOk);
  EXPECT_TRUE(frames[0].payload.starts_with("ok metrics json {"));

  const std::string unknown = client.request("metrics xml");
  EXPECT_TRUE(unknown.starts_with("error: unknown metrics format"))
      << unknown;

  EXPECT_EQ(client.request("shutdown"), "ok shutdown");
  fx.join();
  EXPECT_EQ(fx.stats.protocol_errors, 0u);
}

TEST(TcpServe, MetricsRequestIsRejectedWhenDisabled) {
  const auto a = make_artifacts(24, 0.3, 73, "service_tcp_obs_off");
  TcpFixture fx(a);
  auto client = ServiceClient::connect_tcp(fx.address());
  EXPECT_EQ(client.request("metrics"),
            "error: metrics disabled (serve with --metrics)");
  EXPECT_EQ(client.request("shutdown"), "ok shutdown");
  fx.join();
}

TEST(TcpServe, ProfileWindowLeavesResponsesByteIdenticalOnBothProtocols) {
  const auto a = make_artifacts(44, 0.3, 79, "service_tcp_profile");
  const auto lines = mixed_workload(a.graph);

  // Reference computed with profiling off.
  GraphCatalog reference_catalog;
  auto reference_entry = reference_catalog.open("g", spec_for(a));
  BatchOptions sequential;
  sequential.threads = 1;
  const auto reference = execute_batch(reference_entry, lines, sequential);

  TcpServerOptions options;
  options.threads = 3;
  TcpFixture fx(a, options);

  auto client = ServiceClient::connect_tcp(fx.address());
  EXPECT_EQ(client.request("profile start"), "ok profile started");
  EXPECT_EQ(client.request_pipelined(lines), reference.responses)
      << "profiling changed response bytes";
  const std::string status = client.request("profile");
  EXPECT_TRUE(status.starts_with("ok profile: enabled=1 events=")) << status;
  const std::string trace = client.request("profile stop");
  ASSERT_TRUE(trace.starts_with("ok profile {")) << trace.substr(0, 80);
  EXPECT_NE(trace.find("\"cat\":\"request\""), std::string::npos);
  EXPECT_NE(trace.find("tcp-worker-"), std::string::npos);

  // The binary framing carries the identical control payloads (its own
  // connection: the first byte commits a connection's framing), and the
  // capture window repeats cleanly.
  auto binary_client = ServiceClient::connect_tcp(fx.address());
  const auto frames = binary_client.call_pipelined(
      {"profile start", lines.front(), "profile stop"});
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].status, wire::Status::kOk);
  EXPECT_EQ(frames[0].payload, "ok profile started");
  EXPECT_EQ(frames[1].payload, reference.responses.front());
  EXPECT_TRUE(frames[2].payload.starts_with("ok profile {"))
      << frames[2].payload.substr(0, 80);

  EXPECT_EQ(client.request("shutdown"), "ok shutdown");
  fx.join();
  EXPECT_EQ(fx.stats.protocol_errors, 0u);
  obs::TimelineJournal::global().reset();
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace gsb::service
