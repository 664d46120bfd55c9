#ifndef GSB_SERVICE_QUERY_H
#define GSB_SERVICE_QUERY_H

/// \file query.h
/// The query-service grammar: typed queries parsed from newline-delimited
/// text, and the canonical form used as the cache key and echoed in every
/// response.
///
/// One query per line, whitespace-separated tokens, vertex ids in the
/// graph's original labeling (docs/SERVICE.md is the reference):
///
///   neighbors V                 adjacency list of V
///   degree V                    degree of V
///   common-neighbors U V        N(U) ∩ N(V)
///   induced-subgraph V1 V2 ...  order, size and edge list of G[{V1...}]
///   kcore-membership K V        1 iff V survives iterated K-core peeling
///   cliques-containing V        every maximal clique containing V
///   paraclique-expand G V1 ...  glom the clique {V1...} with glom factor G
///   top-hubs N                  top N vertices by degree, ties by clique
///                               participation
///
/// Canonicalization makes semantically equal queries cache-equal: operand
/// lists are sorted and deduplicated where order is irrelevant, and numbers
/// are re-printed in decimal, so `common-neighbors 9 2` and
/// `common-neighbors 2  9` share one cache entry and one byte-identical
/// response.

#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"

namespace gsb::service {

enum class QueryKind {
  kNeighbors,
  kDegree,
  kCommonNeighbors,
  kInducedSubgraph,
  kKcoreMembership,
  kCliquesContaining,
  kParacliqueExpand,
  kTopHubs,
};

/// One parsed query.  `vertices` holds the vertex operands (canonicalized
/// per kind); `k` is the K of kcore-membership, the N of top-hubs, and the
/// glom factor of paraclique-expand.
struct Query {
  QueryKind kind = QueryKind::kDegree;
  std::vector<graph::VertexId> vertices;
  std::size_t k = 0;
};

/// Parses one query line (already canonicalized on return).  Throws
/// std::runtime_error with a user-facing message on malformed input.
Query parse_query(const std::string& line);

/// The canonical text of \p query — the cache key (with the graph epoch)
/// and the echo prefix of its response.
std::string canonical_query(const Query& query);

/// Keyword for \p kind ("neighbors", "cliques-containing", ...).
const char* query_kind_name(QueryKind kind);

/// Label of \p kind's execution span, `execute:<keyword>`.  Static
/// storage: a span site that records nothing builds no string.
std::string_view query_execute_label(QueryKind kind);

}  // namespace gsb::service

#endif  // GSB_SERVICE_QUERY_H
