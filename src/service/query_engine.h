#ifndef GSB_SERVICE_QUERY_ENGINE_H
#define GSB_SERVICE_QUERY_ENGINE_H

/// \file query_engine.h
/// Executes typed queries against one resident GraphEntry.
///
/// Every query returns a single serialized text line
/// `<canonical-query>: <payload>` whose bytes are fully determined by the
/// graph artifacts and the canonical query — never by thread count, cache
/// state, or the presence of the `.gsbci` index (indexed and rescanning
/// executions emit identical bytes; service_test pins this on seeded
/// ensembles).  That byte-stability is what makes the ResultCache sound:
/// replaying cached bytes is indistinguishable from re-executing.
///
/// Vertex operands and all reported ids are in the graph's *original*
/// labeling; the engine folds through the degree-sort permutation of a
/// sorted `.gsbg` in both directions, matching the CLI's convention and
/// the labels `.gsbc` streams store.
///
/// An engine holds no file handle: every clique record comes from the
/// stream its GraphEntry mapped at open.  It is cheap to construct and not
/// thread-safe (its counters are plain); concurrent callers construct one
/// engine per thread over the same shared GraphEntry, which is read-only.

#include <cstdint>
#include <memory>
#include <string>

#include "service/graph_catalog.h"
#include "service/query.h"

namespace gsb::service {

/// Per-engine execution counters (merged by the batch executor).
struct QueryEngineStats {
  std::uint64_t executed = 0;       ///< queries run (errors included)
  std::uint64_t errors = 0;         ///< queries answered with `error:`
  std::uint64_t index_queries = 0;  ///< clique queries answered via .gsbci
  std::uint64_t stream_scans = 0;   ///< full .gsbc rescans
  std::uint64_t records_decoded = 0;  ///< clique records materialized

  QueryEngineStats& operator+=(const QueryEngineStats& other) noexcept;
};

class QueryEngine {
 public:
  explicit QueryEngine(std::shared_ptr<const GraphEntry> entry);

  /// Executes \p query and returns the serialized single-line response
  /// (no trailing newline).  Never throws for per-query problems: bad
  /// operands or a missing cliques source come back as an `error: ` line,
  /// deterministically.
  std::string execute(const Query& query);

  /// Parses and executes one request line (parse failures become `error: `
  /// responses too, so a batch never aborts on one bad line).
  std::string execute_line(const std::string& line);

  [[nodiscard]] const QueryEngineStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const GraphEntry& entry() const noexcept { return *entry_; }

 private:
  std::string dispatch(const Query& query);
  std::string run_neighbors(const Query& query);
  std::string run_degree(const Query& query);
  std::string run_common_neighbors(const Query& query);
  std::string run_induced_subgraph(const Query& query);
  std::string run_kcore_membership(const Query& query);
  std::string run_cliques_containing(const Query& query);
  std::string run_paraclique_expand(const Query& query);
  std::string run_top_hubs(const Query& query);

  /// Bound-checks an original-label operand and folds it to stored space.
  graph::VertexId stored_operand(graph::VertexId original) const;

  std::shared_ptr<const GraphEntry> entry_;
  QueryEngineStats stats_;
};

}  // namespace gsb::service

#endif  // GSB_SERVICE_QUERY_ENGINE_H
