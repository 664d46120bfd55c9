#include "service/query_engine.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "graph/transforms.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "util/timer.h"

namespace gsb::service {
namespace {

void append_ids(std::string& out, const std::vector<graph::VertexId>& ids) {
  for (const graph::VertexId id : ids) {
    out += ' ';
    out += std::to_string(id);
  }
}

}  // namespace

QueryEngineStats& QueryEngineStats::operator+=(
    const QueryEngineStats& other) noexcept {
  executed += other.executed;
  errors += other.errors;
  index_queries += other.index_queries;
  stream_scans += other.stream_scans;
  records_decoded += other.records_decoded;
  return *this;
}

QueryEngine::QueryEngine(std::shared_ptr<const GraphEntry> entry)
    : entry_(std::move(entry)) {
  if (entry_ == nullptr) {
    throw std::invalid_argument("QueryEngine: null graph entry");
  }
}

graph::VertexId QueryEngine::stored_operand(graph::VertexId original) const {
  if (original >= entry_->order()) {
    throw std::runtime_error("vertex " + std::to_string(original) +
                             " out of range (graph order " +
                             std::to_string(entry_->order()) + ")");
  }
  return entry_->to_stored(original);
}

namespace {

/// Engine-level series: per-kind execution latency plus the access-path
/// counters (index hit vs stream rescan, records decoded).
struct EngineMetrics {
  std::array<obs::Histogram,
             static_cast<std::size_t>(QueryKind::kTopHubs) + 1>
      execute_micros;
  obs::Counter index_queries;
  obs::Counter stream_scans;
  obs::Counter records_decoded;
};

const EngineMetrics& engine_metrics() {
  static const EngineMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
    EngineMetrics m;
    for (std::size_t k = 0; k < m.execute_micros.size(); ++k) {
      m.execute_micros[k] = registry.histogram(
          "gsb_query_execute_microseconds",
          "Engine execution latency per query type (cache misses only).",
          std::string("type=\"") +
              query_kind_name(static_cast<QueryKind>(k)) + "\"");
    }
    m.index_queries = registry.counter(
        "gsb_index_queries_total",
        "cliques-containing answered through the .gsbci index.");
    m.stream_scans = registry.counter(
        "gsb_stream_scans_total",
        "cliques-containing answered by a full .gsbc rescan.");
    m.records_decoded = registry.counter(
        "gsb_clique_records_decoded_total",
        "Clique records decoded while answering queries.");
    return m;
  }();
  return metrics;
}

}  // namespace

std::string QueryEngine::execute(const Query& query) {
  ++stats_.executed;
  const EngineMetrics& metrics = engine_metrics();
  const bool instrumented = obs::MetricsRegistry::global().enabled();
  util::Timer timer;
  const QueryEngineStats before = stats_;
  std::string response;
  try {
    obs::TimelineSpan span(obs::TimelineEventKind::kStage,
                           query_execute_label(query.kind));
    response = dispatch(query);
  } catch (const std::exception& error) {
    ++stats_.errors;
    response = "error: '" + canonical_query(query) + "': " + error.what();
  }
  if (instrumented) {
    metrics.execute_micros[static_cast<std::size_t>(query.kind)]
        .observe_micros(static_cast<std::uint64_t>(timer.micros()));
    metrics.index_queries.inc(stats_.index_queries - before.index_queries);
    metrics.stream_scans.inc(stats_.stream_scans - before.stream_scans);
    metrics.records_decoded.inc(stats_.records_decoded -
                                before.records_decoded);
  }
  return response;
}

std::string QueryEngine::execute_line(const std::string& line) {
  Query query;
  try {
    query = parse_query(line);
  } catch (const std::exception& error) {
    ++stats_.executed;
    ++stats_.errors;
    return std::string("error: ") + error.what();
  }
  return execute(query);
}

std::string QueryEngine::dispatch(const Query& query) {
  switch (query.kind) {
    case QueryKind::kNeighbors: return run_neighbors(query);
    case QueryKind::kDegree: return run_degree(query);
    case QueryKind::kCommonNeighbors: return run_common_neighbors(query);
    case QueryKind::kInducedSubgraph: return run_induced_subgraph(query);
    case QueryKind::kKcoreMembership: return run_kcore_membership(query);
    case QueryKind::kCliquesContaining: return run_cliques_containing(query);
    case QueryKind::kParacliqueExpand: return run_paraclique_expand(query);
    case QueryKind::kTopHubs: return run_top_hubs(query);
  }
  throw std::runtime_error("unhandled query kind");
}

std::string QueryEngine::run_neighbors(const Query& query) {
  const graph::VertexId stored = stored_operand(query.vertices[0]);
  std::vector<graph::VertexId> ids;
  ids.reserve(entry_->view().degree(stored));
  for (const graph::VertexId w : entry_->view().neighbor_list(stored)) {
    ids.push_back(entry_->to_original(w));
  }
  std::sort(ids.begin(), ids.end());
  std::string out = canonical_query(query) + ":";
  append_ids(out, ids);
  return out;
}

std::string QueryEngine::run_degree(const Query& query) {
  const graph::VertexId stored = stored_operand(query.vertices[0]);
  return canonical_query(query) + ": " +
         std::to_string(entry_->view().degree(stored));
}

std::string QueryEngine::run_common_neighbors(const Query& query) {
  const graph::VertexId a = stored_operand(query.vertices[0]);
  const graph::VertexId b = stored_operand(query.vertices[1]);
  // Walk the sparser row, probe the denser: O(min degree) bit tests.
  const graph::VertexId walk =
      entry_->view().degree(a) <= entry_->view().degree(b) ? a : b;
  const graph::VertexId probe = walk == a ? b : a;
  std::vector<graph::VertexId> ids;
  for (const graph::VertexId w : entry_->view().neighbor_list(walk)) {
    if (entry_->view().has_edge(probe, w)) {
      ids.push_back(entry_->to_original(w));
    }
  }
  std::sort(ids.begin(), ids.end());
  std::string out = canonical_query(query) + ":";
  append_ids(out, ids);
  return out;
}

std::string QueryEngine::run_induced_subgraph(const Query& query) {
  std::vector<graph::VertexId> stored;
  stored.reserve(query.vertices.size());
  for (const graph::VertexId v : query.vertices) {
    stored.push_back(stored_operand(v));
  }
  const auto induced = graph::induced_subgraph(entry_->view(), stored);
  std::vector<std::pair<graph::VertexId, graph::VertexId>> edges;
  edges.reserve(induced.graph.num_edges());
  for (const auto& [a, b] : induced.graph.edge_list()) {
    const graph::VertexId u = entry_->to_original(induced.mapping[a]);
    const graph::VertexId v = entry_->to_original(induced.mapping[b]);
    edges.emplace_back(std::min(u, v), std::max(u, v));
  }
  std::sort(edges.begin(), edges.end());
  std::string out = canonical_query(query) + ": n=" +
                    std::to_string(induced.graph.order()) +
                    " m=" + std::to_string(edges.size());
  for (const auto& [u, v] : edges) {
    out += ' ' + std::to_string(u) + '-' + std::to_string(v);
  }
  return out;
}

std::string QueryEngine::run_kcore_membership(const Query& query) {
  const graph::VertexId stored = stored_operand(query.vertices[0]);
  return canonical_query(query) +
         (entry_->core_numbers()[stored] >= query.k ? ": 1" : ": 0");
}

std::string QueryEngine::run_cliques_containing(const Query& query) {
  const graph::VertexId v = query.vertices[0];
  if (v >= entry_->order()) {
    throw std::runtime_error("vertex " + std::to_string(v) +
                             " out of range (graph order " +
                             std::to_string(entry_->order()) + ")");
  }
  const storage::GsbcReader* stream = entry_->cliques();
  if (stream == nullptr) {
    throw std::runtime_error(
        "no clique stream attached (open with --cliques FILE.gsbc)");
  }
  // Cliques live in original labels on disk, so no permutation folding
  // here — the stream is the source of truth either way.
  std::string out = canonical_query(query) + ":";
  std::vector<graph::VertexId> clique;
  bool first = true;
  auto emit = [&](const std::vector<graph::VertexId>& members) {
    out += first ? " " : ", ";
    first = false;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i > 0) out += ' ';
      out += std::to_string(members[i]);
    }
  };
  if (const CliqueIndex* index = entry_->index()) {
    // Random access: touch exactly |postings(v)| records, never the rest
    // of the stream.  Record id ends where record id + 1 begins.
    ++stats_.index_queries;
    for (const std::uint64_t id : index->postings(v)) {
      const std::uint64_t end = id + 1 < index->clique_count()
                                    ? index->clique_offset(id + 1)
                                    : stream->file_bytes();
      stream->read_record(index->clique_offset(id), end, clique);
      ++stats_.records_decoded;
      emit(clique);
    }
  } else {
    ++stats_.stream_scans;
    auto reader = stream->scan();
    while (reader.next(clique)) {
      ++stats_.records_decoded;
      if (std::binary_search(clique.begin(), clique.end(), v)) emit(clique);
    }
  }
  return out;
}

std::string QueryEngine::run_paraclique_expand(const Query& query) {
  std::vector<graph::VertexId> seed;
  seed.reserve(query.vertices.size());
  for (const graph::VertexId v : query.vertices) {
    seed.push_back(stored_operand(v));
  }
  std::sort(seed.begin(), seed.end());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    for (std::size_t j = i + 1; j < seed.size(); ++j) {
      if (!entry_->view().has_edge(seed[i], seed[j])) {
        throw std::runtime_error(
            "seed is not a clique: " +
            std::to_string(entry_->to_original(seed[i])) + " and " +
            std::to_string(entry_->to_original(seed[j])) +
            " are not adjacent");
      }
    }
  }
  analysis::ParacliqueOptions options;
  options.glom = query.k;
  const auto grown =
      analysis::grow_paraclique(entry_->view(), seed, options);
  std::vector<graph::VertexId> ids;
  ids.reserve(grown.members.size());
  for (const graph::VertexId v : grown.members) {
    ids.push_back(entry_->to_original(v));
  }
  std::sort(ids.begin(), ids.end());
  std::string out = canonical_query(query) + ":";
  append_ids(out, ids);
  return out;
}

std::string QueryEngine::run_top_hubs(const Query& query) {
  const std::vector<analysis::HubReport>& hubs = entry_->hub_ranking();
  const std::size_t count = std::min(query.k, hubs.size());
  std::string out = canonical_query(query) + ":";
  out.reserve(out.size() + count * 32);
  for (std::size_t i = 0; i < count; ++i) {
    out += i == 0 ? " " : "; ";
    out += std::to_string(entry_->to_original(hubs[i].vertex));
    out += " deg=";
    out += std::to_string(hubs[i].degree);
    out += " cliques=";
    out += std::to_string(hubs[i].clique_participation);
  }
  return out;
}

}  // namespace gsb::service
