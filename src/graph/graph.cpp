#include "graph/graph.h"

namespace gsb::graph {

Graph::Graph(std::size_t n)
    : rows_(n, bits::DynamicBitset(n)), degrees_(n, 0) {}

Graph Graph::from_edges(
    std::size_t n, const std::vector<std::pair<VertexId, VertexId>>& edges) {
  Graph g(n);
  for (const auto& [u, v] : edges) g.add_edge(u, v);
  return g;
}

double Graph::density() const noexcept {
  return edge_density(order(), num_edges_);
}

void Graph::add_edge(VertexId u, VertexId v) {
  if (u == v || rows_[u].test(v)) return;
  rows_[u].set(v);
  rows_[v].set(u);
  ++degrees_[u];
  ++degrees_[v];
  ++num_edges_;
}

void Graph::remove_edge(VertexId u, VertexId v) {
  if (u == v || !rows_[u].test(v)) return;
  rows_[u].reset(v);
  rows_[v].reset(u);
  --degrees_[u];
  --degrees_[v];
  --num_edges_;
}

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (std::size_t d : degrees_) best = std::max(best, d);
  return best;
}

std::vector<VertexId> Graph::neighbor_list(VertexId v) const {
  return rows_[v].to_vector();
}

std::vector<std::pair<VertexId, VertexId>> Graph::edge_list() const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(num_edges_);
  for (VertexId u = 0; u < order(); ++u) {
    rows_[u].for_each([&](std::size_t v) {
      if (v > u) edges.emplace_back(u, static_cast<VertexId>(v));
    });
  }
  return edges;
}

bool Graph::operator==(const Graph& other) const noexcept {
  if (order() != other.order() || num_edges_ != other.num_edges_) return false;
  for (std::size_t v = 0; v < order(); ++v) {
    if (!(rows_[v] == other.rows_[v])) return false;
  }
  return true;
}

std::size_t Graph::adjacency_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& row : rows_) total += row.size_bytes();
  return total;
}

}  // namespace gsb::graph
