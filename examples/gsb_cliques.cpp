// gsb_cliques — command-line maximal clique enumeration over graph files.
//
// The adoption path for this library: point it at a DIMACS .clq or edge-list
// file (e.g. a thresholded correlation graph exported from any pipeline) and
// stream maximal cliques in non-decreasing size order.
//
//   $ ./gsb_cliques graph.clq --min 5 --max 0 --threads 4
//   $ ./gsb_cliques graph.edges --format edges --count-only
//   $ ./gsb_cliques graph.clq --maximum            # just the maximum clique
//
// Flags:
//   --format dimacs|edges|binary   input format (default: by extension)
//   --min K                        Init_K lower bound (default 3)
//   --max K                        upper bound, 0 = unbounded (default 0)
//   --threads P                    worker threads, 0 = all cores (default 0)
//   --count-only                   print per-size counts instead of cliques
//   --maximum                      compute one maximum clique and exit
//   --stats                        print per-level statistics
//   --progress                     log level-by-level progress to stderr

#include <cstdio>
#include <string>

#include "analysis/clique_stats.h"
#include "core/maximum_clique.h"
#include "core/parallel_enumerator.h"
#include "graph/io.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/table.h"

namespace {

gsb::graph::Graph load_graph(const std::string& path,
                             const std::string& format) {
  using namespace gsb::graph;
  std::string kind = format;
  if (kind.empty()) {
    if (path.ends_with(".clq") || path.ends_with(".dimacs")) {
      kind = "dimacs";
    } else if (path.ends_with(".bin") || path.ends_with(".gsbg")) {
      kind = "binary";
    } else {
      kind = "edges";
    }
  }
  if (kind == "dimacs") return read_dimacs_file(path);
  if (kind == "binary") return read_binary_file(path);
  if (kind == "edges") return read_edge_list_file(path);
  throw std::runtime_error("unknown format '" + kind + "'");
}

void print_clique(std::span<const gsb::graph::VertexId> clique) {
  for (std::size_t i = 0; i < clique.size(); ++i) {
    std::printf("%s%u", i ? " " : "", clique[i]);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gsb;
  const util::Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: gsb_cliques <graph-file> [--format dimacs|edges|"
                 "binary] [--min K] [--max K]\n"
                 "                   [--threads P] [--count-only] [--maximum] "
                 "[--stats] [--progress]\n");
    return 2;
  }

  graph::Graph g;
  try {
    g = load_graph(cli.positional()[0], cli.get("format", ""));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "loaded %zu vertices, %zu edges (density %.4f%%)\n",
               g.order(), g.num_edges(), 100.0 * g.density());

  if (cli.get_bool("maximum", false)) {
    const auto result = core::maximum_clique(g);
    std::fprintf(stderr, "maximum clique: %zu vertices (%llu nodes, %.3f s)\n",
                 result.clique.size(),
                 static_cast<unsigned long long>(result.tree_nodes),
                 result.seconds);
    print_clique(result.clique);
    return 0;
  }

  const core::SizeRange range{
      static_cast<std::size_t>(cli.get_int("min", 3)),
      static_cast<std::size_t>(cli.get_int("max", 0))};
  const auto threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  const bool count_only = cli.get_bool("count-only", false);
  if (cli.get_bool("progress", false)) {
    util::set_log_level(util::LogLevel::kInfo);
  }

  core::CliqueCounter counter;
  auto counting = counter.callback();
  const core::CliqueCallback sink =
      [&](std::span<const graph::VertexId> clique) {
        counting(clique);
        if (!count_only) print_clique(clique);
      };
  const auto progress = [](const core::LevelStats& level) {
    util::log_info(util::format(
        "level k=%zu: %llu sub-lists, %llu candidates, %llu maximal",
        level.k, static_cast<unsigned long long>(level.sublists),
        static_cast<unsigned long long>(level.candidates),
        static_cast<unsigned long long>(level.maximal_emitted)));
  };

  core::ParallelOptions options;
  options.range = range;
  options.threads = threads;
  options.progress = progress;
  const core::EnumerationStats stats =
      core::enumerate_maximal_cliques_parallel(g, sink, options).base;

  std::fprintf(stderr, "%llu maximal cliques in [%zu, %s] in %.3f s\n",
               static_cast<unsigned long long>(stats.total_maximal), range.lo,
               range.hi == 0 ? "inf" : std::to_string(range.hi).c_str(),
               stats.total_seconds);
  if (count_only) {
    util::TableWriter table({"size", "maximal cliques"});
    for (const auto& [size, count] : counter.by_size()) {
      table.add_row({util::format("%zu", size),
                     util::format("%llu",
                                  static_cast<unsigned long long>(count))});
    }
    table.print();
  }
  if (cli.get_bool("stats", false)) {
    util::TableWriter table({"k", "N[k]", "M[k]", "bytes (formula)",
                             "seconds"});
    for (const auto& level : stats.levels) {
      table.add_row(
          {util::format("%zu", level.k),
           util::format("%llu", static_cast<unsigned long long>(level.sublists)),
           util::format("%llu",
                        static_cast<unsigned long long>(level.candidates)),
           util::format_bytes(level.bytes_formula).c_str(),
           util::format("%.3f", level.seconds)});
    }
    table.print();
  }
  return 0;
}
