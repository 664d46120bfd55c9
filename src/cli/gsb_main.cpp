// gsb — the pipeline driver: every stage of the paper's workflow behind one
// binary.
//
// The paper's genomics pipeline is "raw microarray data after normalization,
// pairwise rank coefficient calculation, and filtering using threshold",
// followed by clique-based analysis of the resulting relationship graph.
// This tool exposes that chain end to end, plus the individual stages, so a
// run can start from synthetic expression data, a saved graph file, or a
// generated random ensemble.  Graphs live in text formats or the
// out-of-core `.gsbg` container: the latter is memory-mapped and analyzed
// directly off disk, never loaded.
//
//   $ gsb pipeline --genes 800 --samples 60 --threshold 0.70 --threads 4
//   $ gsb pipeline --out-of-core --genes 20000 --graph-out big.gsbg
//   $ gsb pipeline --graph-file big.gsbg --threads 8
//   $ gsb cliques graph.clq --min 4 --threads 8 --count-only
//   $ gsb cliques big.gsbg --engine bk --threads 8 --clique-out big.gsbc
//   $ gsb maximum graph.clq
//   $ gsb generate --kind modules --n 2000 --out graph.clq
//   $ gsb convert graph.clq graph.gsbg --degree-sort
//   $ gsb info graph.gsbg --verify
//   $ gsb index big.gsbc
//   $ gsb query --graph-file big.gsbg --cliques big.gsbc 'cliques-containing 17'
//   $ gsb query --graph-file big.gsbg --batch queries.txt --threads 8 --cache
//   $ gsb serve --graph-file big.gsbg --cliques big.gsbc --socket /tmp/gsb.sock
//   $ cat graph.clq | gsb cliques - --min 5
//   $ gsb --help

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/tiled_correlation.h"
#include "core/clique.h"
#include "core/maximum_clique.h"
#include "core/parallel_bk.h"
#include "core/parallel_enumerator.h"
#include "graph/generators.h"
#include "graph/graph_view.h"
#include "graph/io.h"
#include "graph/transforms.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/timeline_export.h"
#include "service/control_text.h"
#include "pipeline/overlap.h"
#include "service/artifact_verify.h"
#include "service/batch_executor.h"
#include "service/client.h"
#include "service/clique_index.h"
#include "service/graph_catalog.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/tcp_server.h"
#include "storage/clique_stream.h"
#include "storage/graph_file.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "util/cli.h"
#include "util/fault_injection.h"
#include "util/io.h"
#include "util/log.h"
#include "util/memory_tracker.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace gsb;

int usage(std::FILE* out) {
  std::fprintf(out,
R"(gsb — genome-scale clique analysis (SC'05 framework)

usage: gsb <command> [flags]

commands:
  pipeline   microarray -> normalize -> rank correlation -> threshold graph
             -> maximal cliques -> paracliques -> hub genes
  cliques    enumerate maximal cliques of a graph file
  maximum    exact maximum clique of a graph file
  generate   synthesize a graph file (G(n,p) or planted modules)
  convert    re-encode a graph (including to/from the .gsbg container)
  info       describe a graph file (.gsbg: header, sections, integrity)
  index      build the .gsbci random-access sidecar for a .gsbc stream
  query      answer graph/clique queries against resident artifacts
  serve      long-lived query loop (stdin, a Unix-domain socket, or TCP)
  verify     re-hash .gsbg/.gsbc/.gsbci artifacts end to end
  help       this text

graph inputs: DIMACS (.clq/.dimacs), edge list, or the mappable .gsbg
container.  Text formats also read from stdin via "-".
.gsbg graphs are memory-mapped and analyzed off disk, not loaded.

pipeline flags:
  --genes N --samples S     synthetic microarray shape   (800 x 60)
  --modules M               planted co-regulated modules (genes/40)
  --method pearson|spearman correlation method           (spearman)
  --threshold T             edge iff |corr| >= T         (0.70)
  --target-edges E          pick threshold for ~E edges  (off, in-core only)
  --graph-file FILE         skip expression stages, use graph (mmap for .gsbg)
  --out-of-core             tiled correlation -> .gsbg -> mmap'd analysis
  --tile-rows R             tile budget for --out-of-core (512)
  --graph-out FILE          where --out-of-core writes its .gsbg
  --init-k K --max-k K      enumeration size window      (4, unbounded)
  --threads P               worker threads, 0 = cores, 1 = one worker (0)
                            (correlation sweep + clique enumeration; edge
                            sets are identical at every thread count)
  --corr-block B            correlation kernel rows per cache block (128)
  --glom G                  paraclique non-neighbor allowance (1)
  --min-paraclique S        stop extraction below size S (5)
  --hubs H                  hub genes reported           (10)
  --seed X                  RNG seed                     (2005)
  --clique-out FILE.gsbc    stream cliques to disk instead of collecting
  --overlap                 schedule analysis stages as a dependency DAG:
                            independent stages run concurrently, hubs start
                            the moment enumeration finishes, and mapped
                            .gsbg inputs prefetch behind compute; artifacts
                            and stage output stay byte-identical to the
                            default staged order
  --csv PREFIX              also write PREFIX_*.csv tables
  --trace-out FILE.json     write the run's execution timeline as Chrome
                            trace JSON (open in Perfetto / chrome://tracing)
  --trace-io                also record per-syscall I/O spans in the trace

cliques flags: <file|-> [--graph-file FILE] [--format dimacs|edges|gsbg]
               [--min K] [--max K] [--threads P] [--engine bk|enumerator]
               [--clique-out FILE.gsbc] [--count-only] [--progress]
               [--trace-out FILE.json] [--trace-io]
               --engine bk = degeneracy-ordered Bron-Kerbosch (root ranges,
               work stealing); enumerator = size-ordered Clique Enumerator.
               --clique-out spills cliques to a .gsbc stream (bounded memory)
maximum flags: <file|-> [--graph-file FILE] [--format F]
generate flags: --kind gnp|modules --n N [--p P | --edges E] --out FILE
                [--seed X] [--format F] [--modules M] [--max-module S]
convert flags: <in> <out> [--in-format F] [--format F]
               [--degree-sort] [--no-bitmap]    (.gsbg outputs)
info flags:    <file> [--format F] [--verify]   (also reads .gsbc streams)
index flags:   <file.gsbc> [--out FILE.gsbci] [--clean-tmp]
query flags:   --graph-file FILE ['QUERY' | --batch FILE|-] [--cliques F.gsbc]
               [--index F.gsbci] [--no-index] [--format F] [--threads P]
               [--cache] [--cache-bytes N] [--stats]
               remote: --connect HOST:PORT|SOCKET ['QUERY' | --batch FILE|-]
               [--binary] [--retries N] [--timeout-ms T]
               (pipelined against a running gsb serve; --retries
               reconnects and replays unanswered line-protocol requests)
serve flags:   --graph-file FILE [--cliques F.gsbc] [--index F.gsbci]
               [--no-index] [--format F] [--socket PATH | --tcp HOST:PORT]
               [--threads P] [--cache] [--cache-bytes N] [--inflight-bytes N]
               [--metrics] [--slow-query-log MICROS] [--request-timeout MS]
               [--idle-timeout MS] [--write-timeout MS] [--clean-tmp]
               [--trace-out FILE.json] [--trace-io]
               --metrics enables the registry and the `metrics` control
               request (Prometheus/JSON/traces: docs/OBSERVABILITY.md);
               --trace-out records request/job timelines for the whole
               run, and the `profile start`/`profile stop` control
               requests capture a bounded window over the wire
verify flags:  <artifact>...   (exit 1 when any artifact fails)

Every flag can also be set through the environment as GSB_<NAME>.
GSB_FAULT_SCHEDULE injects deterministic I/O faults for chaos testing
(grammar and fault model: docs/ROBUSTNESS.md).
Full reference with worked examples: docs/CLI.md; the query grammar and
wire format live in docs/SERVICE.md.
)");
  return out == stdout ? 0 : 2;
}

void save_output(const graph::Graph& g, const std::string& path,
                 const std::string& format, const std::string& comment,
                 const storage::GsbgWriteOptions& gsbg_options = {}) {
  if (graph::detect_graph_format(path, format) == "gsbg") {
    storage::write_gsbg_file(g, path, gsbg_options);
    return;
  }
  graph::save_graph(g, path, format, comment);
}

/// Non-negative integer flag; rejects `--threads -1`-style values instead of
/// letting them wrap through size_t into absurd allocation sizes.
std::size_t size_flag(const util::Cli& cli, const std::string& name,
                      std::int64_t fallback) {
  const std::int64_t value = cli.get_int(name, fallback);
  if (value < 0) {
    throw std::runtime_error("--" + name + " must be >= 0, got " +
                             std::to_string(value));
  }
  return static_cast<std::size_t>(value);
}

/// False, after naming both flags, when \p range is the window
/// `[--<lo_flag>, --<hi_flag>]` with its upper bound set below its lower
/// one: it selects nothing, a usage error rather than an empty result.
bool window_is_valid(const core::SizeRange& range, const char* lo_flag,
                     const char* hi_flag) {
  if (range.hi == 0 || range.hi >= range.lo) return true;
  std::fprintf(stderr, "error: --%s %zu is below --%s %zu: empty window\n",
               hi_flag, range.hi, lo_flag, range.lo);
  return false;
}

/// Runs the degeneracy-ordered Bron–Kerbosch engine (`--engine bk`), one
/// driver at every --threads.  \p ordered selects the deterministic merge
/// — callers whose sink is order-insensitive (pure counting) skip the
/// reorder buffering entirely.  Returns wall seconds; scheduling detail
/// goes to stderr when verbose.
double run_bk_engine(const graph::GraphView& g, const core::SizeRange& range,
                     std::size_t threads, const core::CliqueCallback& sink,
                     bool ordered, bool verbose) {
  util::Timer timer;
  core::ParallelBkOptions options;
  options.range = range;
  options.threads = threads;
  options.deterministic = ordered;
  const auto stats = core::parallel_bk(g, sink, options);
  if (verbose) {
    std::fprintf(stderr,
                 "bk: degeneracy %zu, %zu threads, %llu range jobs stolen, "
                 "reorder peak %s\n",
                 stats.degeneracy, stats.threads,
                 static_cast<unsigned long long>(stats.steals),
                 util::format_bytes(stats.peak_pending_bytes).c_str());
  }
  return timer.seconds();
}

void warn_unqueried(const util::Cli& cli) {
  for (const auto& flag : cli.unqueried()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", flag.c_str());
  }
}

/// Startup hygiene for the directories a command writes artifacts into:
/// report `*.tmp.<pid>` debris left behind by crashed writers, and with
/// --clean-tmp remove it.  Temps owned by live pids (concurrent builds)
/// are never touched.
void handle_stale_temps(const util::Cli& cli,
                        const std::vector<std::string>& artifact_paths) {
  const bool clean = cli.get_bool("clean-tmp", false);
  std::vector<std::string> dirs;
  for (const std::string& path : artifact_paths) {
    if (path.empty()) continue;
    const std::filesystem::path dir = std::filesystem::path(path).parent_path();
    const std::string parent = dir.empty() ? std::string(".") : dir.string();
    if (std::find(dirs.begin(), dirs.end(), parent) == dirs.end()) {
      dirs.push_back(parent);
    }
  }
  for (const std::string& dir : dirs) {
    for (const auto& stale : util::io::find_stale_temps(dir)) {
      if (clean) {
        std::error_code ec;
        std::filesystem::remove(stale.path, ec);
        std::fprintf(stderr, "%s stale temp %s (pid %ld is dead)\n",
                     ec ? "warning: cannot remove" : "removed",
                     stale.path.c_str(), stale.pid);
      } else {
        std::fprintf(stderr,
                     "warning: stale temp %s (pid %ld is dead); remove it "
                     "with --clean-tmp\n",
                     stale.path.c_str(), stale.pid);
      }
    }
  }
}

/// Memory summary: the tracker's structure-level accounting next to the
/// OS-reported peak RSS — the numbers an out-of-core run quotes to prove
/// bounded memory.
void print_memory_summary(const std::string& csv,
                          std::size_t ooc_peak_bytes = 0) {
  const util::MemoryTracker& tracker = util::global_memory_tracker();
  util::TableWriter table({"memory", "bytes", "human"});
  auto row = [&](const char* label, std::size_t bytes) {
    table.add_row({label, util::format("%zu", bytes),
                   util::format_bytes(bytes).c_str()});
  };
  for (unsigned t = 0; t < static_cast<unsigned>(util::MemTag::kNumTags);
       ++t) {
    const auto tag = static_cast<util::MemTag>(t);
    const std::size_t bytes = tracker.current(tag);
    if (bytes != 0) {
      row(util::format("tracked %s",
                       std::string(util::MemoryTracker::tag_name(tag)).c_str())
              .c_str(),
          bytes);
    }
  }
  row("tracked peak", tracker.peak());
  if (ooc_peak_bytes != 0) row("out-of-core build peak", ooc_peak_bytes);
  row("process peak rss", util::process_peak_rss_bytes());
  std::printf("memory:\n");
  table.print();
  if (!csv.empty()) table.write_csv(csv + "_memory.csv");
}

// --- gsb pipeline -----------------------------------------------------------

/// `--trace-out FILE.json [--trace-io]`: arms the process-wide timeline
/// journal for the command's whole run.  Returns the output path (empty
/// = tracing off); pair with finish_timeline once the traced work is
/// done.  Recording is observational only — artifacts and stdout are
/// byte-identical with or without the flag.
std::string arm_timeline(const util::Cli& cli) {
  const std::string path = cli.get("trace-out", "");
  const bool io_spans = cli.get_bool("trace-io", false);
  if (path.empty()) return path;
  obs::TimelineJournal& journal = obs::TimelineJournal::global();
  journal.reset();
  journal.set_io_spans_enabled(io_spans);
  journal.set_enabled(true);
  return path;
}

/// Stops recording and writes the Chrome trace for arm_timeline's window.
void finish_timeline(const std::string& path) {
  if (path.empty()) return;
  obs::TimelineJournal& journal = obs::TimelineJournal::global();
  journal.set_enabled(false);
  const obs::TimelineSnapshot snapshot = journal.snapshot();
  obs::write_chrome_trace(journal, path);
  std::fprintf(stderr,
               "timeline: %zu events across %zu lanes -> %s"
               " (%llu dropped)\n",
               snapshot.events.size(), snapshot.lanes.size(), path.c_str(),
               static_cast<unsigned long long>(snapshot.dropped));
}

int cmd_pipeline(const util::Cli& cli) {
  const std::string trace_out = arm_timeline(cli);
  const auto threads = size_flag(cli, "threads", 0);
  const auto corr_block = size_flag(cli, "corr-block", 0);
  const core::SizeRange range{size_flag(cli, "init-k", 4),
                              size_flag(cli, "max-k", 0)};
  if (!window_is_valid(range, "init-k", "max-k")) return 2;
  const auto glom = size_flag(cli, "glom", 1);
  const auto min_para = size_flag(cli, "min-paraclique", 5);
  const auto hub_count = size_flag(cli, "hubs", 10);
  const std::string csv = cli.get("csv", "");
  const std::string clique_out = cli.get("clique-out", "");
  const bool overlap = cli.get_bool("overlap", false);
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 2005)));

  // --- stage 1-3: expression -> normalize -> thresholded correlation graph.
  // Three routes: a graph file (mmap'd when .gsbg), the in-core builder, or
  // the tiled out-of-core builder (bounded memory at any gene count).
  storage::GraphFile input;
  double threshold_used = 0.0;
  std::size_t ooc_peak_bytes = 0;
  const std::string graph_file =
      cli.has("graph-file") ? cli.get("graph-file", "") : cli.get("graph", "");
  if (!graph_file.empty()) {
    input = storage::open_graph_file(graph_file, cli.get("format", ""));
    threshold_used = cli.get_double("threshold", 0.0);
    std::printf("graph: %s %zu vertices, %zu edges (density %.3f%%)\n",
                input.is_mapped() ? "mapped" : "loaded", input.view.order(),
                input.view.num_edges(), 100.0 * input.view.density());
  } else {
    const auto genes = size_flag(cli, "genes", 800);
    const auto samples = size_flag(cli, "samples", 60);
    bio::MicroarrayConfig config;
    config.genes = genes;
    config.samples = samples;
    config.modules =
        size_flag(cli, "modules", static_cast<std::int64_t>(genes / 40));
    auto data = [&] {
      obs::TimelineSpan span(obs::TimelineEventKind::kStage, "microarray");
      return bio::generate_microarray(config, rng);
    }();
    std::printf("microarray: %zu probes x %zu arrays, %zu planted modules\n",
                data.expression.genes(), data.expression.samples(),
                data.modules.size());
    bio::quantile_normalize(data.expression);

    const bool spearman = cli.get("method", "spearman") != "pearson";
    if (cli.get_bool("out-of-core", false)) {
      bio::TiledCorrelationOptions tiled;
      tiled.method = spearman ? bio::CorrelationMethod::kSpearman
                              : bio::CorrelationMethod::kPearson;
      tiled.threshold = cli.get_double("threshold", 0.70);
      tiled.tile_rows = size_flag(cli, "tile-rows", 512);
      tiled.threads = threads;
      tiled.block_rows = corr_block;
      std::string out_path = cli.get("graph-out", "");
      const bool keep_graph = !out_path.empty();
      if (!keep_graph) {
        // Unique per run: concurrent pipelines must not clobber each
        // other's container or its derived .std/.edges scratch files.
        std::random_device entropy;
        out_path = (std::filesystem::temp_directory_path() /
                    util::format("gsb_pipeline_%08x%08x.gsbg", entropy(),
                                 entropy()))
                       .string();
      }
      const auto built =
          bio::build_correlation_gsbg(data.expression, out_path, tiled);
      data.expression = bio::ExpressionMatrix();  // drop before analysis
      input = storage::GraphFile::from_container(
          storage::MappedGraph::open(out_path));
      if (!keep_graph) {
        std::error_code ec;  // unlinked; the mapping stays valid
        std::filesystem::remove(out_path, ec);
      }
      threshold_used = built.threshold_used;
      ooc_peak_bytes = built.peak_tracked_bytes;
      std::printf(
          "correlation graph (out-of-core, %zu tiles of %zu rows): "
          "|rho| >= %.3f -> %zu edges (build peak %s)\n",
          built.tiles, tiled.tile_rows, threshold_used, input.view.num_edges(),
          util::format_bytes(built.peak_tracked_bytes).c_str());
    } else {
      bio::CorrelationGraphOptions graph_options;
      graph_options.method = spearman ? bio::CorrelationMethod::kSpearman
                                      : bio::CorrelationMethod::kPearson;
      graph_options.threshold = cli.get_double("threshold", 0.70);
      graph_options.target_edges = size_flag(cli, "target-edges", 0);
      graph_options.threads = threads;
      graph_options.corr_block = corr_block;
      auto built = bio::build_correlation_graph(data.expression,
                                                graph_options, rng);
      input = storage::GraphFile::from_graph(std::move(built.graph));
      threshold_used = built.threshold_used;
      std::printf(
          "correlation graph: |rho| >= %.3f -> %zu edges (density %.3f%%)\n",
          threshold_used, input.view.num_edges(),
          100.0 * input.view.density());
    }
  }
  warn_unqueried(cli);
  if (input.view.order() == 0) {
    std::fprintf(stderr, "error: empty graph, nothing to analyze\n");
    return 1;
  }
  const graph::GraphView& g = input.view;

  // --- stages 4-7: bounded enumeration (Bron–Kerbosch over the
  // (Init_K-1)-core, in the Clique Enumerator's order, optionally streamed
  // to a .gsbc), paraclique extraction (round 0 is the maximum clique), hub
  // report — all through pipeline::run_analysis.  Staged mode (the
  // default) runs them inline in submission order;
  // --overlap schedules them as a par::JobGraph so independent stages
  // run concurrently, the hub report releases the moment enumeration
  // finishes, and a prefetch job pages a mapped .gsbg in behind compute.
  // Both modes produce byte-identical artifacts and stage output.
  pipeline::AnalysisOptions analysis_options;
  analysis_options.range = range;
  analysis_options.threads = threads;
  analysis_options.glom = glom;
  analysis_options.min_paraclique = min_para;
  analysis_options.hub_count = hub_count;
  analysis_options.clique_out = clique_out;
  analysis_options.overlap = overlap;
  analysis_options.original_id = [&input](graph::VertexId v) {
    return input.original_id(v);
  };
  if (input.is_mapped()) analysis_options.prefetch = &input.mapped;
  const auto analysis_result = pipeline::run_analysis(g, analysis_options);

  std::printf("maximum clique: %zu vertices (%s)\n",
              analysis_result.maximum.clique.size(),
              util::format_seconds(analysis_result.maximum.seconds).c_str());
  if (analysis_result.streamed) {
    const storage::GsbcWriteStats& written = analysis_result.stream;
    std::printf("clique stream: %s <- %llu cliques, %llu members (%s)\n",
                clique_out.c_str(),
                static_cast<unsigned long long>(written.clique_count),
                static_cast<unsigned long long>(written.member_total),
                util::format_bytes(written.file_bytes).c_str());
    const storage::CliqueSortStats& sorted = analysis_result.sorted;
    std::printf("clique sort: %llu runs spilled, buffer peak %s (merge %s)\n",
                static_cast<unsigned long long>(sorted.runs),
                util::format_bytes(sorted.peak_bytes).c_str(),
                util::format_seconds(sorted.seconds).c_str());
  }
  std::printf("maximal cliques in [%zu, %s]: %llu (%s, %zu threads)\n",
              range.lo,
              range.hi == 0 ? "inf" : std::to_string(range.hi).c_str(),
              static_cast<unsigned long long>(analysis_result.spectrum.total),
              util::format_seconds(analysis_result.enumeration.total_seconds)
                  .c_str(),
              threads == 0 ? static_cast<std::size_t>(
                                 std::thread::hardware_concurrency())
                           : threads);
  util::TableWriter size_table({"clique size", "count"});
  for (const auto& [size, count] : analysis_result.spectrum.size_histogram) {
    size_table.add_row(
        {util::format("%zu", size),
         util::format("%llu", static_cast<unsigned long long>(count))});
  }
  size_table.print();
  if (!csv.empty()) size_table.write_csv(csv + "_cliques.csv");

  const auto& paracliques = analysis_result.paracliques;
  util::TableWriter para_table(
      {"paraclique", "members", "seed", "density"});
  for (std::size_t i = 0; i < paracliques.size(); ++i) {
    const auto& p = paracliques[i];
    para_table.add_row({util::format("%zu", i + 1),
                        util::format("%zu", p.members.size()),
                        util::format("%zu", p.seed_size),
                        util::format("%.3f", p.density)});
  }
  std::printf("paracliques (glom %zu, min size %zu): %zu\n", glom, min_para,
              paracliques.size());
  para_table.print();
  if (!csv.empty()) para_table.write_csv(csv + "_paracliques.csv");

  // Hub vertex ids are reported in the original labeling even for
  // degree-sorted containers.
  const auto& hubs = analysis_result.hubs;
  util::TableWriter hub_table({"rank", "vertex", "degree", "cliques"});
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    hub_table.add_row({util::format("%zu", i + 1),
                       util::format("%u", input.original_id(hubs[i].vertex)),
                       util::format("%zu", hubs[i].degree),
                       util::format("%u", hubs[i].clique_participation)});
  }
  std::printf("top %zu hub vertices:\n", hubs.size());
  hub_table.print();
  if (!csv.empty()) hub_table.write_csv(csv + "_hubs.csv");

  if (overlap) {
    const par::JobGraphStats& sched = analysis_result.sched;
    std::printf(
        "scheduler: %llu jobs (%llu stolen), peak ready %llu, "
        "prefetched %s, stages %s\n",
        static_cast<unsigned long long>(sched.jobs_run),
        static_cast<unsigned long long>(sched.jobs_stolen),
        static_cast<unsigned long long>(sched.peak_ready),
        util::format_bytes(analysis_result.prefetched_bytes).c_str(),
        util::format_seconds(analysis_result.seconds).c_str());
  }

  finish_timeline(trace_out);
  print_memory_summary(csv, ooc_peak_bytes);
  return 0;
}

// --- gsb cliques ------------------------------------------------------------

int cmd_cliques(const util::Cli& cli) {
  std::string path = cli.get("graph-file", "");
  if (path.empty() && cli.positional().size() >= 2) {
    path = cli.positional()[1];
  }
  if (path.empty()) {
    std::fprintf(
        stderr,
        "usage: gsb cliques <graph-file|-> [--graph-file FILE]\n"
        "           [--format dimacs|edges|gsbg] [--min K] [--max K]\n"
        "           [--threads P] [--engine bk|enumerator]\n"
        "           [--clique-out FILE.gsbc] [--count-only] [--progress]\n");
    return 2;
  }
  const std::string engine = cli.get("engine", "enumerator");
  if (engine != "bk" && engine != "enumerator") {
    std::fprintf(stderr, "error: unknown --engine '%s' (bk|enumerator)\n",
                 engine.c_str());
    return 2;
  }
  const core::SizeRange range{size_flag(cli, "min", 3),
                              size_flag(cli, "max", 0)};
  if (!window_is_valid(range, "min", "max")) return 2;
  const std::string trace_out = arm_timeline(cli);
  const storage::GraphFile input =
      storage::open_graph_file(path, cli.get("format", ""));
  const graph::GraphView& g = input.view;
  std::fprintf(stderr, "%s %zu vertices, %zu edges (density %.3f%%)\n",
               input.is_mapped() ? "mapped" : "loaded", g.order(),
               g.num_edges(), 100.0 * g.density());

  const auto threads = size_flag(cli, "threads", 0);
  const bool count_only = cli.get_bool("count-only", false);
  const std::string clique_out = cli.get("clique-out", "");
  const bool progress = cli.get_bool("progress", false);
  if (progress) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  warn_unqueried(cli);

  // Sink chain: always count; optionally spill to a .gsbc stream and/or
  // print members.  --clique-out replaces stdout emission (the stream *is*
  // the output) and the sink retains no cliques; the enumerator engine
  // still buffers one round's maximal cliques until it drains them in order.
  std::optional<storage::GsbcWriter> writer;
  if (!clique_out.empty()) writer.emplace(clique_out, g.order());
  const bool print_members = !count_only && !writer;
  core::CliqueCounter counter;
  auto counting = counter.callback();
  std::vector<graph::VertexId> members;
  const core::CliqueCallback sink =
      [&](std::span<const graph::VertexId> clique) {
        counting(clique);
        if (!writer && !print_members) return;
        // Translate to original labels (the degree-sort permutation
        // scrambles ascending order; the stream writer canonicalizes it
        // itself, printing restores it explicitly).
        members.assign(clique.begin(), clique.end());
        for (auto& v : members) v = input.original_id(v);
        if (writer) {
          writer->append(members);
          return;
        }
        std::sort(members.begin(), members.end());
        for (std::size_t i = 0; i < members.size(); ++i) {
          std::printf("%s%u", i ? " " : "", members[i]);
        }
        std::printf("\n");
      };

  double seconds = 0.0;
  if (engine == "bk") {
    // Deterministic merge only when emission order is observable (clique
    // lines or a .gsbc stream); pure counting skips the reorder buffer.
    const bool ordered = writer.has_value() || print_members;
    seconds = run_bk_engine(g, range, threads, sink, ordered, progress);
  } else {
    core::ParallelOptions options;
    options.range = range;
    options.threads = threads;
    seconds = core::enumerate_maximal_cliques_parallel(g, sink, options)
                  .base.total_seconds;
  }
  std::fprintf(stderr, "%llu maximal cliques in %s (engine %s)\n",
               static_cast<unsigned long long>(counter.total()),
               util::format_seconds(seconds).c_str(), engine.c_str());
  if (writer) {
    const auto written = writer->close();
    std::printf("clique stream: %s <- %llu cliques, %llu members (%s)\n",
                clique_out.c_str(),
                static_cast<unsigned long long>(written.clique_count),
                static_cast<unsigned long long>(written.member_total),
                util::format_bytes(written.file_bytes).c_str());
  }
  if (count_only) {
    util::TableWriter table({"size", "maximal cliques"});
    for (const auto& [size, count] : counter.by_size()) {
      table.add_row(
          {util::format("%zu", size),
           util::format("%llu", static_cast<unsigned long long>(count))});
    }
    table.print();
  }
  finish_timeline(trace_out);
  return 0;
}

// --- gsb maximum ------------------------------------------------------------

int cmd_maximum(const util::Cli& cli) {
  std::string path = cli.get("graph-file", "");
  if (path.empty() && cli.positional().size() >= 2) {
    path = cli.positional()[1];
  }
  if (path.empty()) {
    std::fprintf(stderr,
                 "usage: gsb maximum <graph-file|-> [--graph-file FILE] "
                 "[--format F]\n");
    return 2;
  }
  const storage::GraphFile input =
      storage::open_graph_file(path, cli.get("format", ""));
  warn_unqueried(cli);
  // Paraclique round 0's search, as `gsb pipeline` reports it: it runs on
  // the subgraph induced on the vertices with an edge, built from the CSR
  // lists, so a mapped container's bitmap stays on disk.  No round grows.
  core::MaxCliqueResult result;
  analysis::extract_all_paracliques(
      input.view, std::numeric_limits<std::size_t>::max(), {}, &result);
  std::printf("maximum clique: %zu vertices (%llu nodes, %s)\n",
              result.clique.size(),
              static_cast<unsigned long long>(result.tree_nodes),
              util::format_seconds(result.seconds).c_str());
  std::vector<graph::VertexId> members;
  members.reserve(result.clique.size());
  for (const graph::VertexId v : result.clique) {
    members.push_back(input.original_id(v));
  }
  std::sort(members.begin(), members.end());
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::printf("%s%u", i ? " " : "", members[i]);
  }
  std::printf("\n");
  return 0;
}

// --- gsb generate -----------------------------------------------------------

int cmd_generate(const util::Cli& cli) {
  const std::string out = cli.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr,
                 "usage: gsb generate --kind gnp|modules --n N "
                 "[--p P | --edges E] --out FILE\n");
    return 2;
  }
  const std::string kind = cli.get("kind", "gnp");
  const auto n = size_flag(cli, "n", 1000);
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 2005)));

  graph::Graph g;
  std::string comment;
  if (kind == "gnp") {
    const double p = cli.get_double("p", 0.01);
    g = graph::gnp(n, p, rng);
    comment = util::format("G(%zu, %g)", n, p);
  } else if (kind == "modules") {
    graph::ModuleGraphConfig config;
    config.n = n;
    config.num_modules =
        size_flag(cli, "modules", static_cast<std::int64_t>(n / 33));
    config.max_module_size =
        size_flag(cli, "max-module", 20);
    const auto target =
        size_flag(cli, "edges", 0);
    auto built = target > 0
                     ? graph::planted_modules_with_edges(config, target, rng)
                     : graph::planted_modules(config, rng);
    g = std::move(built.graph);
    comment = util::format("planted modules on %zu vertices (%zu modules)", n,
                           built.modules.size());
  } else {
    std::fprintf(stderr, "error: unknown --kind '%s'\n", kind.c_str());
    return 2;
  }
  warn_unqueried(cli);
  save_output(g, out, cli.get("format", ""), comment);
  // Keep stdout clean when it carries the graph itself.
  std::fprintf(out == "-" ? stderr : stdout,
               "wrote %s: %zu vertices, %zu edges (density %.3f%%)\n",
               out.c_str(), g.order(), g.num_edges(), 100.0 * g.density());
  return 0;
}

// --- gsb convert ------------------------------------------------------------

int cmd_convert(const util::Cli& cli) {
  if (cli.positional().size() < 3) {
    std::fprintf(stderr,
                 "usage: gsb convert <in> <out> [--in-format F] "
                 "[--format F] [--degree-sort] [--no-bitmap]\n");
    return 2;
  }
  const std::string in_path = cli.positional()[1];
  const std::string out_path = cli.positional()[2];
  storage::GsbgWriteOptions gsbg_options;
  gsbg_options.degree_sort = cli.get_bool("degree-sort", false);
  gsbg_options.bitmap = !cli.get_bool("no-bitmap", false);
  const std::string in_format = cli.get("in-format", "");
  const std::string out_format = cli.get("format", "");
  warn_unqueried(cli);

  storage::GraphFile input = storage::open_graph_file(in_path, in_format);
  const std::size_t order = input.view.order();
  const std::size_t edges = input.view.num_edges();

  // A degree-sorted source stores relabeled vertices; restore the original
  // labels before re-encoding so conversions never silently relabel (a new
  // --degree-sort on the output re-sorts from the originals).
  graph::Graph unpermuted;
  bool have_unpermuted = false;
  if (!input.permutation().empty()) {
    const auto perm = input.permutation();
    std::vector<graph::VertexId> inverse(perm.size());
    for (graph::VertexId stored = 0; stored < perm.size(); ++stored) {
      inverse[perm[stored]] = stored;
    }
    // A bitmap-less container was already materialized into input.owned
    // when opened; reuse it rather than rebuilding from the CSR.
    unpermuted = graph::relabel(input.is_mapped() ? input.mapped.load()
                                                  : std::move(input.owned),
                                inverse);
    have_unpermuted = true;
  }

  if (graph::detect_graph_format(out_path, out_format) == "gsbg") {
    if (have_unpermuted) {
      storage::write_gsbg_file(unpermuted, out_path, gsbg_options);
    } else {
      storage::write_gsbg_file(input.view, out_path, gsbg_options);
    }
  } else {
    // Materializes when the source was mapped; text formats need an
    // in-memory graph.
    const graph::Graph owned = have_unpermuted ? std::move(unpermuted)
                               : input.is_mapped()
                                   ? input.mapped.load()
                                   : std::move(input.owned);
    graph::save_graph(owned, out_path, out_format,
                      "converted from " + in_path);
  }
  if (out_path == "-") {
    std::fprintf(stderr, "wrote %zu vertices, %zu edges to stdout\n", order,
                 edges);
  } else {
    const auto bytes = std::filesystem::file_size(out_path);
    std::printf("wrote %s: %zu vertices, %zu edges, %s\n", out_path.c_str(),
                order, edges, util::format_bytes(bytes).c_str());
  }
  return 0;
}

// --- gsb info ---------------------------------------------------------------

int cmd_info(const util::Cli& cli) {
  if (cli.positional().size() < 2) {
    std::fprintf(stderr, "usage: gsb info <file> [--format F] [--verify]\n");
    return 2;
  }
  const std::string path = cli.positional()[1];
  const std::string format = cli.get("format", "");
  const bool verify = cli.get_bool("verify", false);
  warn_unqueried(cli);

  // Clique streams are inspectable too: header totals plus the optional
  // integrity pass.  Every record is decoded before anything is printed —
  // open-time bounds catch gross truncation, but a cut inside a record can
  // stay within them, and reporting totals the file does not contain would
  // be lying (the structural scan fails loudly instead).
  if (path.size() > 5 && path.ends_with(".gsbc")) {
    storage::GsbcReader::Options options;
    options.verify_checksum = verify;
    auto reader = storage::GsbcReader::open(path, options);
    std::vector<graph::VertexId> members;
    while (reader.next(members)) {
    }
    std::printf(
        "%s: gsbc v%u clique stream, universe %zu vertices\n"
        "cliques %llu, members %llu, largest %llu, mean size %.2f\n",
        path.c_str(), reader.header().version, reader.order(),
        static_cast<unsigned long long>(reader.clique_count()),
        static_cast<unsigned long long>(reader.member_total()),
        static_cast<unsigned long long>(reader.max_size()),
        reader.clique_count() == 0
            ? 0.0
            : static_cast<double>(reader.member_total()) /
                  static_cast<double>(reader.clique_count()));
    std::printf("file: %s, checksum %016llx%s\n",
                util::format_bytes(reader.file_bytes()).c_str(),
                static_cast<unsigned long long>(reader.header().checksum),
                verify ? " (verified)" : "");
    return 0;
  }

  if (graph::detect_graph_format(path, format) != "gsbg") {
    const graph::Graph g = graph::load_graph(path, format);
    std::printf("%s: %zu vertices, %zu edges (density %.3f%%), max degree "
                "%zu\n",
                path.c_str(), g.order(), g.num_edges(), 100.0 * g.density(),
                g.max_degree());
    return 0;
  }

  storage::MappedGraph::Options options;
  options.verify_checksum = verify;
  const auto mapped = storage::MappedGraph::open(path, options);
  std::printf("%s: gsbg v%u, %zu vertices, %zu edges (density %.3f%%)\n",
              path.c_str(), mapped.header().version, mapped.order(),
              mapped.num_edges(), 100.0 * mapped.density());
  std::printf("file: %s, checksum %016llx%s, %s\n",
              util::format_bytes(mapped.file_bytes()).c_str(),
              static_cast<unsigned long long>(mapped.header().checksum),
              verify ? " (verified)" : "",
              mapped.degree_sorted() ? "degree-sorted" : "original order");

  util::TableWriter table({"section", "bytes", "human"});
  for (const auto& section : mapped.sections()) {
    table.add_row({storage::section_name(section.kind),
                   util::format("%llu",
                                static_cast<unsigned long long>(section.size)),
                   util::format_bytes(section.size).c_str()});
  }
  table.print();
  return 0;
}

// --- gsb index --------------------------------------------------------------

int cmd_index(const util::Cli& cli) {
  if (cli.positional().size() < 2) {
    std::fprintf(stderr,
                 "usage: gsb index <file.gsbc> [--out FILE.gsbci] "
                 "[--clean-tmp]\n");
    return 2;
  }
  const std::string gsbc_path = cli.positional()[1];
  const std::string out_path =
      cli.get("out", service::default_index_path(gsbc_path));
  handle_stale_temps(cli, {gsbc_path, out_path});
  warn_unqueried(cli);
  util::Timer timer;
  const auto stats = service::build_clique_index(gsbc_path, out_path);
  std::printf(
      "wrote %s: %llu cliques, %llu postings, %s (%s)\n", out_path.c_str(),
      static_cast<unsigned long long>(stats.clique_count),
      static_cast<unsigned long long>(stats.posting_total),
      util::format_bytes(stats.file_bytes).c_str(),
      util::format_seconds(timer.seconds()).c_str());
  return 0;
}

// --- gsb verify -------------------------------------------------------------

int cmd_verify(const util::Cli& cli) {
  if (cli.positional().size() < 2) {
    std::fprintf(stderr, "usage: gsb verify <artifact>...\n");
    return 2;
  }
  warn_unqueried(cli);
  int failures = 0;
  for (std::size_t i = 1; i < cli.positional().size(); ++i) {
    try {
      std::printf("%s\n", service::verify_artifact(cli.positional()[i]).c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// --- gsb query / gsb serve --------------------------------------------------

/// Opens the service artifacts a query/serve invocation names: the graph
/// (mmap'd for .gsbg), the optional clique stream, and — unless --no-index
/// — the `.gsbci` sidecar (explicit via --index, else probed next to the
/// stream).
service::GraphSpec service_spec(const util::Cli& cli) {
  service::GraphSpec spec;
  spec.graph_path = cli.get("graph-file", "");
  spec.format = cli.get("format", "");
  spec.cliques_path = cli.get("cliques", "");
  spec.index_path = cli.get("index", "");
  spec.probe_index = !cli.get_bool("no-index", false);
  return spec;
}

std::shared_ptr<service::GraphEntry> open_service_entry(
    const util::Cli& cli, service::GraphCatalog& catalog) {
  auto entry = catalog.open("default", service_spec(cli));
  std::fprintf(stderr, "graph: %zu vertices, %zu edges%s%s\n", entry->order(),
               entry->view().num_edges(),
               entry->cliques() != nullptr ? ", clique stream attached" : "",
               entry->index() != nullptr ? " (indexed)" : "");
  return entry;
}

/// Runs the query batch against a remote `gsb serve` instead of local
/// artifacts: `--connect HOST:PORT` (TCP) or `--connect /path.sock` (Unix
/// socket), pipelining every request on one connection.  `--binary`
/// switches the wire format; the response bytes are identical either way.
/// On the line protocol, `retries` reconnects-and-replays; every query
/// is read-only and deterministic, so the replayed session's responses
/// are byte-identical to a fault-free one.  `timeout_ms` bounds connect
/// and socket inactivity on both protocols (0 = no bound).
int run_remote_query(const std::string& target, bool binary,
                     const std::vector<std::string>& lines,
                     std::size_t retries, std::size_t timeout_ms) {
  std::vector<std::string> requests;
  for (const std::string& line : lines) {
    // Blank lines are keep-alives with no response; sending one through a
    // pipelined call would wait forever for a reply that never comes.
    if (line.find_first_not_of(" \t\r\n") != std::string::npos) {
      requests.push_back(line);
    }
  }
  const bool unix_socket = target.find('/') != std::string::npos;
  std::vector<std::string> responses;
  if (binary) {
    auto client =
        unix_socket ? service::ServiceClient::connect_unix(target, timeout_ms)
                    : service::ServiceClient::connect_tcp(target, timeout_ms);
    client.set_io_timeout(timeout_ms);
    for (auto& response : client.call_pipelined(requests)) {
      responses.push_back(std::move(response.payload));
    }
  } else {
    service::RetryPolicy policy;
    policy.retries = retries;
    policy.timeout_ms = timeout_ms;
    service::RetryingClient client(target, unix_socket, policy);
    responses = client.request_pipelined(requests);
  }
  std::size_t errors = 0;
  for (const std::string& response : responses) {
    if (response.rfind("error:", 0) == 0) ++errors;
    // Metrics payloads travel one-line-framed on the wire; unwrap them for
    // the terminal so `gsb query --connect ... metrics` prints scrapable
    // Prometheus text (JSON and traces are naturally single-line).
    constexpr std::string_view kProm = "ok metrics prom ";
    constexpr std::string_view kJson = "ok metrics json ";
    constexpr std::string_view kTraces = "ok metrics traces ";
    if (response.rfind(kProm, 0) == 0) {
      const std::string text =
          obs::unescape_multiline(response.substr(kProm.size()));
      std::fwrite(text.data(), 1, text.size(), stdout);
      if (text.empty() || text.back() != '\n') std::printf("\n");
    } else if (response.rfind(kJson, 0) == 0) {
      std::printf("%s\n", response.c_str() + kJson.size());
    } else if (response.rfind(kTraces, 0) == 0) {
      std::printf("%s\n", response.c_str() + kTraces.size());
    } else if (constexpr std::string_view kProfile = "ok profile {";
               response.rfind(kProfile, 0) == 0) {
      // `profile stop` answers with the Chrome trace itself; unwrap so
      // the output redirects straight into a Perfetto-loadable file.
      std::printf("%s\n", response.c_str() + kProfile.size() - 1);
    } else {
      std::printf("%s\n", response.c_str());
    }
  }
  const bool all_errors = !responses.empty() && errors == responses.size();
  return all_errors ? 1 : 0;
}

int cmd_query(const util::Cli& cli) {
  const std::string batch_path = cli.get("batch", "");
  const std::string connect_target = cli.get("connect", "");
  if ((connect_target.empty() && cli.get("graph-file", "").empty()) ||
      (batch_path.empty() && cli.positional().size() < 2)) {
    std::fprintf(
        stderr,
        "usage: gsb query --graph-file FILE ['QUERY' ... | --batch FILE|-]\n"
        "           [--cliques F.gsbc] [--index F.gsbci] [--no-index]\n"
        "           [--format F] [--threads P] [--cache] [--cache-bytes N]\n"
        "           [--stats]     (grammar: docs/SERVICE.md)\n"
        "   or: gsb query --connect HOST:PORT|SOCKET [--binary]\n"
        "           [--retries N] [--timeout-ms T]\n"
        "           ['QUERY' ... | --batch FILE|-]\n");
    return 2;
  }
  const auto threads = size_flag(cli, "threads", 0);
  const bool use_cache = cli.get_bool("cache", false);
  const auto cache_bytes = size_flag(cli, "cache-bytes", 64 << 20);
  const bool print_stats = cli.get_bool("stats", false);

  std::vector<std::string> lines;
  if (batch_path.empty()) {
    lines.assign(cli.positional().begin() + 1, cli.positional().end());
  } else if (batch_path == "-") {
    std::string line;
    while (std::getline(std::cin, line)) lines.push_back(line);
  } else {
    std::ifstream in(batch_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open batch file '%s'\n",
                   batch_path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }

  if (!connect_target.empty()) {
    const bool binary = cli.get_bool("binary", false);
    const auto retries = size_flag(cli, "retries", 0);
    const auto timeout_ms = size_flag(cli, "timeout-ms", 0);
    if (binary && retries > 0) {
      std::fprintf(stderr,
                   "warning: --retries applies to the line protocol; "
                   "--binary runs without retry\n");
    }
    warn_unqueried(cli);
    return run_remote_query(connect_target, binary, lines, retries,
                            timeout_ms);
  }

  service::GraphCatalog catalog;
  auto entry = open_service_entry(cli, catalog);
  warn_unqueried(cli);

  std::optional<service::ResultCache> cache;
  if (use_cache) cache.emplace(cache_bytes);
  service::BatchOptions options;
  options.threads = threads;
  options.cache = cache ? &*cache : nullptr;
  util::Timer timer;
  const auto result = service::execute_batch(entry, lines, options);
  const double seconds = timer.seconds();
  for (const std::string& response : result.responses) {
    std::printf("%s\n", response.c_str());
  }
  if (print_stats) {
    std::fprintf(
        stderr,
        "query: %llu queries (%llu errors) in %s, %zu threads; "
        "index %llu, rescans %llu, records %llu",
        static_cast<unsigned long long>(result.engine.executed),
        static_cast<unsigned long long>(result.engine.errors),
        util::format_seconds(seconds).c_str(), result.threads_used,
        static_cast<unsigned long long>(result.engine.index_queries),
        static_cast<unsigned long long>(result.engine.stream_scans),
        static_cast<unsigned long long>(result.engine.records_decoded));
    if (cache) {
      const auto cache_stats = cache->stats();
      std::fprintf(
          stderr, "; cache %llu/%llu hits, %llu evictions, %s",
          static_cast<unsigned long long>(result.cache_hits),
          static_cast<unsigned long long>(result.cache_hits +
                                          result.cache_misses),
          static_cast<unsigned long long>(cache_stats.evictions),
          util::format_bytes(cache_stats.bytes).c_str());
    }
    std::fprintf(stderr, "\n");
  }
  // One-shot ergonomics: all-error batches signal failure to scripts.
  const bool all_errors =
      !result.responses.empty() &&
      result.engine.errors == result.engine.executed;
  return all_errors ? 1 : 0;
}

std::atomic<bool> g_serve_stop{false};

void serve_signal_handler(int) {
  g_serve_stop.store(true, std::memory_order_relaxed);
}

int cmd_serve(const util::Cli& cli) {
  if (cli.get("graph-file", "").empty()) {
    std::fprintf(
        stderr,
        "usage: gsb serve --graph-file FILE [--cliques F.gsbc]\n"
        "           [--index F.gsbci] [--no-index] [--format F]\n"
        "           [--socket PATH | --tcp HOST:PORT] [--threads P]\n"
        "           [--cache] [--cache-bytes N] [--inflight-bytes N]\n"
        "           [--metrics] [--slow-query-log MICROS]\n"
        "           [--request-timeout MS] [--idle-timeout MS]\n"
        "           [--write-timeout MS] [--clean-tmp]\n"
        "           [--trace-out FILE.json] [--trace-io]\n");
    return 2;
  }
  const auto threads = size_flag(cli, "threads", 0);
  const bool use_cache = cli.get_bool("cache", false);
  const auto cache_bytes = size_flag(cli, "cache-bytes", 64 << 20);
  const std::string socket_path = cli.get("socket", "");
  const std::string tcp_address = cli.get("tcp", "");
  const auto inflight_bytes = size_flag(cli, "inflight-bytes", 4 << 20);
  const auto slow_query_log = size_flag(cli, "slow-query-log", 0);
  const auto request_timeout = size_flag(cli, "request-timeout", 0);
  const auto idle_timeout = size_flag(cli, "idle-timeout", 0);
  const auto write_timeout = size_flag(cli, "write-timeout", 0);
  handle_stale_temps(cli, {cli.get("graph-file", ""), cli.get("cliques", ""),
                           cli.get("index", "")});
  // A slow-query threshold needs request traces, which come with the
  // registry, so --slow-query-log implies --metrics.
  const bool metrics = cli.get_bool("metrics", false) || slow_query_log > 0;
  if (!socket_path.empty() && !tcp_address.empty()) {
    std::fprintf(stderr, "error: --socket and --tcp are exclusive\n");
    return 2;
  }
  if (metrics) {
    obs::MetricsRegistry::global().set_enabled(true);
    obs::TimelineJournal& journal = obs::TimelineJournal::global();
    journal.set_request_traces_enabled(true);
    journal.requests().set_slow_log_micros(slow_query_log);
  }
  const std::string trace_out = arm_timeline(cli);

  service::GraphCatalog catalog;
  const service::GraphSpec spec = service_spec(cli);
  auto entry = open_service_entry(cli, catalog);
  warn_unqueried(cli);

  std::optional<service::ResultCache> cache;
  if (use_cache) cache.emplace(cache_bytes);
  // sigaction without SA_RESTART, so Ctrl-C interrupts the blocking
  // stdin read instead of waiting for the next input line.
  struct sigaction action{};
  action.sa_handler = serve_signal_handler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  if (!tcp_address.empty() || !socket_path.empty()) {
    // One epoll loop serves both socket transports; the address picks the
    // family (a '/' makes it a Unix path, so a bare file name gains "./").
    std::string address = tcp_address;
    if (!socket_path.empty()) {
      address = socket_path.find('/') == std::string::npos
                    ? "./" + socket_path
                    : socket_path;
    }
    service::TcpServerOptions tcp_options;
    tcp_options.threads = threads;
    tcp_options.cache = cache ? &*cache : nullptr;
    tcp_options.stop = &g_serve_stop;
    tcp_options.max_inflight_bytes = inflight_bytes;
    tcp_options.request_timeout_ms = request_timeout;
    tcp_options.idle_timeout_ms = idle_timeout;
    tcp_options.write_timeout_ms = write_timeout;
    // `reload` control request: re-open the same artifact spec under a
    // fresh epoch and swap it in under live traffic.
    tcp_options.reload = [&catalog, spec] {
      return catalog.open("default", spec);
    };
    service::TcpServer server(entry, address, tcp_options);
    if (socket_path.empty()) {
      std::fprintf(stderr, "serving on tcp %s (port %u)\n", address.c_str(),
                   static_cast<unsigned>(server.port()));
    } else {
      std::fprintf(stderr, "serving on unix socket %s\n", address.c_str());
    }
    const auto tcp_stats = server.serve();
    std::fprintf(
        stderr,
        "served %llu requests (%llu connections); engine: %llu queries, "
        "%llu errors; cache %llu/%llu hits; busy %llu, reloads %llu, "
        "protocol errors %llu%s\n",
        static_cast<unsigned long long>(tcp_stats.requests),
        static_cast<unsigned long long>(tcp_stats.connections),
        static_cast<unsigned long long>(tcp_stats.engine.executed),
        static_cast<unsigned long long>(tcp_stats.engine.errors),
        static_cast<unsigned long long>(tcp_stats.cache_hits),
        static_cast<unsigned long long>(tcp_stats.cache_hits +
                                        tcp_stats.cache_misses),
        static_cast<unsigned long long>(tcp_stats.busy_rejections),
        static_cast<unsigned long long>(tcp_stats.reloads),
        static_cast<unsigned long long>(tcp_stats.protocol_errors),
        tcp_stats.shutdown_requested ? " (client shutdown)" : "");
    const std::string latency = service::latency_quantile_fields();
    if (!latency.empty()) {
      std::fprintf(stderr, "request latency:%s\n", latency.c_str());
    }
    finish_timeline(trace_out);
    print_memory_summary("");
    return 0;
  }

  service::ServeOptions options;
  options.cache = cache ? &*cache : nullptr;
  options.stop = &g_serve_stop;
  options.request_timeout_ms = request_timeout;
  std::fprintf(stderr, "serving on stdin (shutdown | ping | stats; EOF "
                       "stops)\n");
  const auto stats = service::serve_stream(entry, std::cin, std::cout, options);
  std::fprintf(
      stderr,
      "served %llu requests; engine: %llu queries, %llu errors, index %llu, "
      "rescans %llu; cache %llu/%llu hits%s\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.engine.executed),
      static_cast<unsigned long long>(stats.engine.errors),
      static_cast<unsigned long long>(stats.engine.index_queries),
      static_cast<unsigned long long>(stats.engine.stream_scans),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_hits + stats.cache_misses),
      stats.shutdown_requested ? " (client shutdown)" : "");
  const std::string latency = service::latency_quantile_fields();
  if (!latency.empty()) {
    std::fprintf(stderr, "request latency:%s\n", latency.c_str());
  }
  finish_timeline(trace_out);
  print_memory_summary("");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::anchor_process_start();
  try {
    // Chaos smoke: GSB_FAULT_SCHEDULE arms the fault shim for the whole
    // process before any I/O happens.
    if (gsb::fault::install_from_env()) {
      std::fprintf(stderr,
                   "fault injection armed from GSB_FAULT_SCHEDULE\n");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: bad GSB_FAULT_SCHEDULE: %s\n",
                 error.what());
    return 2;
  }
  const util::Cli cli(argc, argv);
  const std::string command =
      cli.positional().empty() ? "" : cli.positional().front();
  if (cli.has("help") || command == "help") return usage(stdout);
  try {
    if (command == "pipeline") return cmd_pipeline(cli);
    if (command == "cliques") return cmd_cliques(cli);
    if (command == "maximum") return cmd_maximum(cli);
    if (command == "generate") return cmd_generate(cli);
    if (command == "convert") return cmd_convert(cli);
    if (command == "info") return cmd_info(cli);
    if (command == "index") return cmd_index(cli);
    if (command == "query") return cmd_query(cli);
    if (command == "serve") return cmd_serve(cli);
    if (command == "verify") return cmd_verify(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return usage(stderr);
}
