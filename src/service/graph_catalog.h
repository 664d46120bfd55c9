#ifndef GSB_SERVICE_GRAPH_CATALOG_H
#define GSB_SERVICE_GRAPH_CATALOG_H

/// \file graph_catalog.h
/// Named, ref-counted access to resident graph artifacts.
///
/// The batch pipeline re-opens its inputs on every invocation; the query
/// service keeps them resident instead.  A GraphCatalog maps names to
/// GraphEntry instances — a memory-mapped `.gsbg` (or a loaded text graph),
/// its companion `.gsbc` clique stream, and the `.gsbci` sidecar index when
/// one exists.  Entries are handed out as shared_ptr: the catalog holds one
/// reference, every live query engine holds another, so `close()` (or a
/// replacing `open()`) drops the catalog's reference immediately while
/// in-flight queries finish against the old mapping safely.
///
/// Every successful open stamps the entry with a process-unique, monotone
/// **epoch**.  The result cache keys on (epoch, canonical query), so
/// replacing a graph under the same name can never serve stale cached
/// answers — the old epoch's entries simply age out of the LRU.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/hubs.h"
#include "graph/graph.h"
#include "graph/graph_view.h"
#include "service/clique_index.h"
#include "storage/graph_file.h"

namespace gsb::service {

/// What to open under a catalog name.
struct GraphSpec {
  std::string graph_path;    ///< .gsbg (mmap'd) or a text format
  std::string format;        ///< forwarded to the graph loader; "" = sniff
  std::string cliques_path;  ///< optional companion .gsbc
  std::string index_path;    ///< optional .gsbci; "" probes the sidecar
                             ///< default_index_path(cliques_path)
  bool probe_index = true;   ///< false: never auto-load the sidecar
                             ///< (forces stream rescans)
};

/// One resident graph with its clique artifacts.  Read-only after open;
/// the two per-epoch values (core numbers, hub ranking) are computed once,
/// on first use, under one mutex.
class GraphEntry {
 public:
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const graph::GraphView& view() const noexcept {
    return graph_.view;
  }
  [[nodiscard]] std::size_t order() const noexcept {
    return graph_.view.order();
  }

  [[nodiscard]] bool has_cliques() const noexcept {
    return !cliques_path_.empty();
  }
  [[nodiscard]] const std::string& cliques_path() const noexcept {
    return cliques_path_;
  }
  /// The `.gsbci` index, or nullptr when the entry runs on stream rescans.
  [[nodiscard]] const CliqueIndex* index() const noexcept {
    return index_.is_open() ? &index_ : nullptr;
  }

  /// True when the backing container is degree-sorted (stored ids differ
  /// from the original labeling queries and streams use).
  [[nodiscard]] bool has_permutation() const noexcept {
    return !inverse_permutation_.empty();
  }
  /// Original label -> stored id (identity without a permutation).
  [[nodiscard]] graph::VertexId to_stored(graph::VertexId original)
      const noexcept {
    return has_permutation() ? inverse_permutation_[original] : original;
  }
  /// Stored id -> original label (identity without a permutation).
  [[nodiscard]] graph::VertexId to_original(graph::VertexId stored)
      const noexcept {
    return graph_.original_id(stored);
  }

  /// Core number of every stored vertex: `kcore-membership K V` reads
  /// core[V] >= K.
  const std::vector<std::uint32_t>& core_numbers() const;

  /// analysis::top_hubs over all n stored vertices, whose first N entries
  /// answer `top-hubs N`.  Participation comes from the index's posting
  /// lengths, else one scan of the stream, else is zero.
  const std::vector<analysis::HubReport>& hub_ranking() const;

 private:
  friend class GraphCatalog;
  GraphEntry() = default;

  std::string name_;
  std::uint64_t epoch_ = 0;
  storage::GraphFile graph_;
  std::vector<graph::VertexId> inverse_permutation_;
  std::string cliques_path_;
  CliqueIndex index_;

  mutable std::mutex derived_mutex_;  ///< guards the per-epoch values below
  mutable std::vector<std::uint32_t> core_;
  mutable std::vector<analysis::HubReport> hubs_;
  mutable bool core_ready_ = false;
  mutable bool hubs_ready_ = false;
};

/// Thread-safe name -> GraphEntry map.
class GraphCatalog {
 public:
  /// Opens \p spec under \p name (replacing any previous entry under that
  /// name with a fresh epoch) and returns the shared entry.  Throws
  /// std::runtime_error on any open/validation failure, leaving a previous
  /// entry under the name untouched.
  std::shared_ptr<GraphEntry> open(const std::string& name,
                                   const GraphSpec& spec);

  /// The entry under \p name, or nullptr.
  [[nodiscard]] std::shared_ptr<GraphEntry> get(const std::string& name) const;

  /// Drops the catalog's reference under \p name; returns false when the
  /// name is unknown.  Outstanding handles keep the entry alive.
  bool close(const std::string& name);

  /// Open names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Live handles to \p name's entry outside the catalog (0 when unknown).
  [[nodiscard]] std::size_t external_refs(const std::string& name) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::shared_ptr<GraphEntry>>> entries_;
};

}  // namespace gsb::service

#endif  // GSB_SERVICE_GRAPH_CATALOG_H
