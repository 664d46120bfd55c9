#include "service/query.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>

namespace gsb::service {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("query: " + what);
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

std::uint64_t parse_number(const std::string& token, const char* what) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || end != token.data() + token.size()) {
    fail(std::string("expected a non-negative ") + what + ", got '" + token +
         "'");
  }
  return value;
}

graph::VertexId parse_vertex(const std::string& token) {
  const std::uint64_t value = parse_number(token, "vertex id");
  if (value > 0xFFFFFFFFull) fail("vertex id '" + token + "' out of range");
  return static_cast<graph::VertexId>(value);
}

/// Sorted, deduplicated operand list for the order-insensitive kinds.
void canonicalize_set(std::vector<graph::VertexId>& vertices) {
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
}

}  // namespace

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kNeighbors: return "neighbors";
    case QueryKind::kDegree: return "degree";
    case QueryKind::kCommonNeighbors: return "common-neighbors";
    case QueryKind::kInducedSubgraph: return "induced-subgraph";
    case QueryKind::kKcoreMembership: return "kcore-membership";
    case QueryKind::kCliquesContaining: return "cliques-containing";
    case QueryKind::kParacliqueExpand: return "paraclique-expand";
    case QueryKind::kTopHubs: return "top-hubs";
  }
  return "?";
}

std::string_view query_execute_label(QueryKind kind) {
  switch (kind) {
    case QueryKind::kNeighbors: return "execute:neighbors";
    case QueryKind::kDegree: return "execute:degree";
    case QueryKind::kCommonNeighbors: return "execute:common-neighbors";
    case QueryKind::kInducedSubgraph: return "execute:induced-subgraph";
    case QueryKind::kKcoreMembership: return "execute:kcore-membership";
    case QueryKind::kCliquesContaining: return "execute:cliques-containing";
    case QueryKind::kParacliqueExpand: return "execute:paraclique-expand";
    case QueryKind::kTopHubs: return "execute:top-hubs";
  }
  return "execute:?";
}

Query parse_query(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) fail("empty query");
  const std::string& keyword = tokens.front();
  Query query;

  auto expect_operands = [&](std::size_t count) {
    if (tokens.size() != count + 1) {
      fail(keyword + " takes " + std::to_string(count) + " operand" +
           (count == 1 ? "" : "s") + ", got " +
           std::to_string(tokens.size() - 1));
    }
  };

  if (keyword == "neighbors" || keyword == "degree" ||
      keyword == "cliques-containing") {
    query.kind = keyword == "neighbors"   ? QueryKind::kNeighbors
                 : keyword == "degree"    ? QueryKind::kDegree
                                          : QueryKind::kCliquesContaining;
    expect_operands(1);
    query.vertices.push_back(parse_vertex(tokens[1]));
  } else if (keyword == "common-neighbors") {
    query.kind = QueryKind::kCommonNeighbors;
    expect_operands(2);
    query.vertices.push_back(parse_vertex(tokens[1]));
    query.vertices.push_back(parse_vertex(tokens[2]));
    if (query.vertices[0] == query.vertices[1]) {
      fail("common-neighbors operands must differ");
    }
    canonicalize_set(query.vertices);
  } else if (keyword == "induced-subgraph") {
    query.kind = QueryKind::kInducedSubgraph;
    if (tokens.size() < 2) fail("induced-subgraph needs at least one vertex");
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      query.vertices.push_back(parse_vertex(tokens[i]));
    }
    canonicalize_set(query.vertices);
  } else if (keyword == "kcore-membership") {
    query.kind = QueryKind::kKcoreMembership;
    expect_operands(2);
    query.k = static_cast<std::size_t>(parse_number(tokens[1], "core K"));
    query.vertices.push_back(parse_vertex(tokens[2]));
  } else if (keyword == "paraclique-expand") {
    query.kind = QueryKind::kParacliqueExpand;
    if (tokens.size() < 3) {
      fail("paraclique-expand needs a glom factor and at least one seed "
           "vertex");
    }
    query.k = static_cast<std::size_t>(parse_number(tokens[1], "glom factor"));
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      query.vertices.push_back(parse_vertex(tokens[i]));
    }
    canonicalize_set(query.vertices);
  } else if (keyword == "top-hubs") {
    query.kind = QueryKind::kTopHubs;
    expect_operands(1);
    query.k = static_cast<std::size_t>(parse_number(tokens[1], "hub count"));
    if (query.k == 0) fail("top-hubs count must be >= 1");
  } else {
    fail("unknown query '" + keyword + "'");
  }
  return query;
}

std::string canonical_query(const Query& query) {
  std::string out = query_kind_name(query.kind);
  const bool k_first = query.kind == QueryKind::kKcoreMembership ||
                       query.kind == QueryKind::kParacliqueExpand ||
                       query.kind == QueryKind::kTopHubs;
  if (k_first) out += ' ' + std::to_string(query.k);
  for (const graph::VertexId v : query.vertices) {
    out += ' ' + std::to_string(v);
  }
  return out;
}

}  // namespace gsb::service
