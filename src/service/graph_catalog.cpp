#include "service/graph_catalog.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "graph/transforms.h"
#include "storage/clique_stream.h"

namespace gsb::service {
namespace {

std::uint64_t next_epoch() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

const std::vector<std::uint32_t>& GraphEntry::core_numbers() const {
  std::lock_guard<std::mutex> lock(derived_mutex_);
  if (!core_ready_) {
    core_ = graph::core_decomposition(view()).core;
    core_ready_ = true;
  }
  return core_;
}

const std::vector<analysis::HubReport>& GraphEntry::hub_ranking() const {
  std::lock_guard<std::mutex> lock(derived_mutex_);
  if (hubs_ready_) return hubs_;
  std::vector<std::uint32_t> participation(order(), 0);
  if (index_.is_open()) {
    // Posting-list lengths — no stream bytes touched at all.  The index
    // counts in original labels; fold through the permutation so the
    // vector lines up with stored ids (what top_hubs consumes).
    for (graph::VertexId v = 0; v < order(); ++v) {
      participation[to_stored(v)] =
          static_cast<std::uint32_t>(index_.participation(v));
    }
  } else if (!cliques_path_.empty()) {
    auto reader = storage::GsbcReader::open(cliques_path_);
    std::vector<graph::VertexId> clique;
    while (reader.next(clique)) {
      for (const graph::VertexId v : clique) ++participation[to_stored(v)];
    }
  }
  hubs_ = analysis::top_hubs(view(), participation, order());
  hubs_ready_ = true;
  return hubs_;
}

std::shared_ptr<GraphEntry> GraphCatalog::open(const std::string& name,
                                               const GraphSpec& spec) {
  // Build the entry completely before touching the map, so a failed open
  // never disturbs an existing entry under the same name.
  auto entry = std::shared_ptr<GraphEntry>(new GraphEntry());
  entry->name_ = name;
  entry->graph_ = storage::open_graph_file(spec.graph_path, spec.format);
  const auto perm = entry->graph_.permutation();
  if (!perm.empty()) {
    entry->inverse_permutation_.resize(perm.size());
    for (graph::VertexId stored = 0; stored < perm.size(); ++stored) {
      entry->inverse_permutation_[perm[stored]] = stored;
    }
  }

  if (!spec.cliques_path.empty()) {
    // Validate the stream now (header + size coherence + universe match);
    // queries reopen it per scan.
    const auto stream = storage::GsbcReader::open(spec.cliques_path);
    if (stream.order() != entry->order()) {
      throw std::runtime_error(
          "catalog: clique stream universe (" +
          std::to_string(stream.order()) + ") does not match graph order (" +
          std::to_string(entry->order()) + ")");
    }
    entry->cliques_path_ = spec.cliques_path;

    std::string index_path = spec.index_path;
    if (index_path.empty() && spec.probe_index) {
      // Probe the conventional sidecar; absence is fine (rescan mode).
      const std::string sidecar = default_index_path(spec.cliques_path);
      std::error_code ec;
      if (std::filesystem::exists(sidecar, ec)) index_path = sidecar;
    }
    if (!index_path.empty()) {
      auto index = CliqueIndex::open(index_path);
      if (index.source_checksum() != stream.header().checksum) {
        throw std::runtime_error(
            "catalog: index '" + index_path +
            "' was built from a different stream (rebuild with gsb index)");
      }
      if (index.order() != entry->order()) {
        throw std::runtime_error("catalog: index universe mismatch");
      }
      entry->index_ = std::move(index);
    }
  } else if (!spec.index_path.empty()) {
    throw std::runtime_error("catalog: an index needs its clique stream");
  }

  entry->epoch_ = next_epoch();
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [existing, slot] : entries_) {
    if (existing == name) {
      slot = entry;
      return entry;
    }
  }
  entries_.emplace_back(name, entry);
  return entry;
}

std::shared_ptr<GraphEntry> GraphCatalog::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, entry] : entries_) {
    if (existing == name) return entry;
  }
  return nullptr;
}

bool GraphCatalog::close(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == name) {
      entries_.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<std::string> GraphCatalog::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t GraphCatalog::external_refs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [existing, entry] : entries_) {
    if (existing == name) {
      const auto count = entry.use_count();
      return count > 0 ? static_cast<std::size_t>(count) - 1 : 0;
    }
  }
  return 0;
}

}  // namespace gsb::service
