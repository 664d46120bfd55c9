#ifndef GSB_STORAGE_GSBG_WRITER_H
#define GSB_STORAGE_GSBG_WRITER_H

/// \file gsbg_writer.h
/// Streaming `.gsbg` writer.
///
/// Writes are row-at-a-time: peak memory is one adjacency row (a
/// ceil(n/64)-word bitset plus its neighbor list), never the whole bitmap —
/// this is what lets the out-of-core correlation builder finalize graphs
/// whose bitmap adjacency would not fit in RAM.

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph_view.h"

namespace gsb::storage {

struct GsbgWriteOptions {
  /// Write the memory-mappable bitmap adjacency section.  Without it the
  /// file is ~8(n+m) bytes but must be loaded (not mapped) for clique
  /// analysis.
  bool bitmap = true;
  /// Relabel vertices by descending degree (ties by original id) and store
  /// the permutation.  Dense rows land first, improving page locality of
  /// the mapped bitmap; consumers translate results back through
  /// MappedGraph::permutation().
  bool degree_sort = false;
};

/// Serializes \p g (in-memory or itself a mapped view) to \p path.
void write_gsbg_file(const graph::GraphView& g, const std::string& path,
                     const GsbgWriteOptions& options = {});

/// Serializes a graph given directly as symmetric CSR adjacency:
/// \p offsets has n+1 entries, \p targets holds each row's sorted neighbor
/// ids (every undirected edge appears in both rows).  This is the
/// finalization entry point of the tiled correlation builder — no Graph or
/// bitmap is ever materialized in RAM.
void write_gsbg_from_csr(std::size_t n,
                         std::span<const std::uint64_t> offsets,
                         std::span<const std::uint32_t> targets,
                         const std::string& path,
                         const GsbgWriteOptions& options = {});

}  // namespace gsb::storage

#endif  // GSB_STORAGE_GSBG_WRITER_H
