#include "storage/graph_file.h"

#include <utility>

#include "graph/io.h"

namespace gsb::storage {

GraphFile GraphFile::from_graph(graph::Graph g) {
  GraphFile file;
  file.owned = std::move(g);
  file.view = graph::GraphView(file.owned);
  return file;
}

GraphFile GraphFile::from_container(MappedGraph container) {
  GraphFile file;
  file.mapped = std::move(container);
  if (file.mapped.has_bitmap()) {
    file.view = file.mapped.view();
  } else {
    file.owned = file.mapped.load();
    file.view = graph::GraphView(file.owned);
  }
  return file;
}

GraphFile open_graph_file(const std::string& path, const std::string& format) {
  if (graph::detect_graph_format(path, format) == "gsbg") {
    return GraphFile::from_container(MappedGraph::open(path));
  }
  return GraphFile::from_graph(graph::load_graph(path, format));
}

}  // namespace gsb::storage
