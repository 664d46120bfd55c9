#ifndef GSB_STORAGE_GRAPH_FILE_H
#define GSB_STORAGE_GRAPH_FILE_H

/// \file graph_file.h
/// The one front door for graph files.
///
/// A `.gsbg` container with a bitmap section is memory-mapped and analyzed
/// off disk; one written without it (`gsb convert --no-bitmap`) is loaded
/// from its CSR sections; every other format goes through
/// graph::load_graph (files, or standard input as "-").  Either way the
/// caller gets one GraphView, and, for a degree-sorted container, the
/// permutation back to the original labels.

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.h"
#include "graph/graph_view.h"
#include "storage/mapped_graph.h"

namespace gsb::storage {

/// A graph ready for analysis.  `view` stays valid across moves: it points
/// into heap or mapped storage, not into this struct.
struct GraphFile {
  graph::Graph owned;  ///< the graph, unless it is analyzed off the mapping
  MappedGraph mapped;  ///< open for every .gsbg input: owns the permutation
  graph::GraphView view;

  /// Wraps a graph already in memory.
  static GraphFile from_graph(graph::Graph g);
  /// Analyzes \p container off its mapping when it has a bitmap section,
  /// else loads its CSR.
  static GraphFile from_container(MappedGraph container);

  /// True when `view` reads the mapped bitmap (not a loaded copy).
  [[nodiscard]] bool is_mapped() const noexcept { return mapped.has_bitmap(); }

  /// Stored id -> original id; empty unless the container is degree-sorted.
  [[nodiscard]] std::span<const std::uint32_t> permutation() const noexcept {
    return mapped.permutation();
  }

  /// Maps a stored vertex id back to the original labeling (identity
  /// without a permutation).
  [[nodiscard]] graph::VertexId original_id(graph::VertexId v) const noexcept {
    const auto perm = permutation();
    return perm.empty() ? v : perm[v];
  }
};

/// Opens \p path in the named or sniffed \p format
/// (graph::detect_graph_format): maps a .gsbg, loads anything else.
/// Throws std::runtime_error on any malformation.
GraphFile open_graph_file(const std::string& path,
                          const std::string& format = {});

}  // namespace gsb::storage

#endif  // GSB_STORAGE_GRAPH_FILE_H
