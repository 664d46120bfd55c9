// gsb_perf — the measuring half of the repository benchmark (run.py builds
// it and drives it; README.md documents workloads and metrics).
//
//   gsb_perf reference --workload W --seed N --ref FILE [--size tiny]
//                      [--corrupt clique]
//       computes the workload's reference outputs with a one-thread staged
//       run (plus the in-core correlation builder for coexpr-ooc) and
//       writes them, with that run's one-thread stage times, to FILE;
//   gsb_perf run --workload W --seed N --seconds S --trace 0|1 --ref FILE
//                --dir WORKDIR --out PREFIX [--size tiny]
//                [--corrupt response|clique]
//       sets the workload up (timed, several times), measures it and checks
//       every output against FILE.  With --trace 1 it makes the traced pass
//       instead and writes PREFIX.trace.json (Chrome trace events) and
//       PREFIX.selftime.txt.  The last stdout line is the result JSON.
//
// A measured run times `gsb pipeline` runs end to end.  The myogenic-cliques
// traced pass also serves the run's result with `gsb serve --tcp --cache`
// under an open-loop request ladder, and times the service calls one by one.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/clique_stats.h"
#include "analysis/hubs.h"
#include "analysis/paraclique.h"
#include "bench/bench_common.h"
#include "bio/correlation.h"
#include "bio/generator.h"
#include "bio/normalize.h"
#include "bio/tiled_correlation.h"
#include "core/clique_enumerator.h"
#include "core/maximum_clique.h"
#include "core/parallel_enumerator.h"
#include "graph/io.h"
#include "pipeline/overlap.h"
#include "service/batch_executor.h"
#include "service/clique_index.h"
#include "service/graph_catalog.h"
#include "service/query.h"
#include "service/query_engine.h"
#include "service/result_cache.h"
#include "service/tcp_server.h"
#include "storage/clique_stream.h"
#include "storage/gsbg_writer.h"
#include "storage/mapped_graph.h"
#include "util/memory_tracker.h"
#include "util/rng.h"
#include "util/timer.h"

#include "loadgen.h"
#include "spans.h"

namespace {

using namespace gsb;
using perf::Scope;
using perf::SpanRecorder;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kThreads = 2;         // pipeline and serve workers
constexpr std::size_t kConnections = 4;     // load-generator connections
constexpr std::size_t kMaxOutstanding = 200;  // < server pipeline bound 256
/// The p99 limit a ladder rung must meet (loadgen.knee_rps).  Heavy kinds
/// cost 0.1-1 ms each when they miss the cache, so a limit near 1 ms
/// would track their service time; 5 ms sits above it and is crossed only
/// when requests queue.
constexpr double kLatencyLimitUs = 5000.0;

// --- configuration -----------------------------------------------------------

struct Config {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string corrupt = "none";
  std::string ref_path;
  std::string dir;
  std::string out_prefix;

  // Workload shapes: the paper-scale shapes, or the tiny ones the
  // benchmark's own tests use.
  [[nodiscard]] std::size_t genes() const { return tiny ? 900 : 12422; }
  [[nodiscard]] std::size_t samples() const { return tiny ? 40 : 96; }
  [[nodiscard]] double myogenic_scale() const { return tiny ? 0.15 : 1.0; }
  /// Rate ladder; step 1 feeds serve_p50_us/serve_p99_us, step 3 the
  /// near-knee serve_p99_us.r40k.  The top rung overloads the server:
  /// serve_max_rps is its completion rate, and loadgen.knee_rps always
  /// has a failing rung to interpolate toward.
  [[nodiscard]] std::vector<double> rates() const {
    if (tiny) return {500, 1000, 2000, 4000, 8000, 16000};
    return {5000, 10000, 20000, 40000, 80000, 160000};
  }
};

Config parse_args(int argc, char** argv) {
  Config c;
  if (argc < 2) throw std::runtime_error("missing command");
  c.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") c.workload = value;
    else if (flag == "--seed") c.seed = std::stoull(value);
    else if (flag == "--seconds") c.seconds = std::stod(value);
    else if (flag == "--trace") c.trace = value == "1";
    else if (flag == "--size") c.tiny = value == "tiny";
    else if (flag == "--corrupt") c.corrupt = value;
    else if (flag == "--ref") c.ref_path = value;
    else if (flag == "--dir") c.dir = value;
    else if (flag == "--out") c.out_prefix = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (c.workload != "coexpr-ooc" && c.workload != "myogenic-cliques") {
    throw std::runtime_error("unknown workload '" + c.workload + "'");
  }
  return c;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string isa_name() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx") ? "avx" : "sse2";
#elif defined(__aarch64__)
  return "neon";
#else
  return "scalar";
#endif
}

std::string host_json(const Config& c) {
  std::ostringstream out;
  out << "{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"isa\":\"" << isa_name() << "\",\"compiler\":\""
      << GSB_PERF_COMPILER << "\",\"build_type\":\"" << GSB_PERF_BUILD_TYPE
      << "\",\"seed\":" << c.seed << ",\"workload\":\"" << c.workload
      << "\",\"size\":\"" << (c.tiny ? "tiny" : "full") << "\"}";
  return out.str();
}

// --- outputs and their reference ----------------------------------------------

/// Everything a run is checked on, in a line-oriented text form that the
/// reference file stores and runs compare byte for byte.
struct Outcome {
  std::uint64_t edges = 0;
  std::size_t omega = 0;
  std::map<std::size_t, std::uint64_t> spectrum;
  std::vector<core::Clique> paracliques;
  std::vector<analysis::HubReport> hubs;

  [[nodiscard]] std::string digest() const {
    std::ostringstream out;
    out << "edges " << edges << "\nomega " << omega << "\nspectrum";
    for (const auto& [size, count] : spectrum) out << ' ' << size << ':' << count;
    std::string members;
    for (const auto& p : paracliques) {
      for (const auto v : p) members += std::to_string(v) + ',';
      members += ';';
    }
    out << "\nparacliques " << paracliques.size() << ' '
        << perf::fnv1a(members) << "\nhubs";
    for (const auto& h : hubs) {
      out << ' ' << h.vertex << ':' << h.degree << ':'
          << h.clique_participation;
    }
    out << '\n';
    return out.str();
  }
};

/// The reference file: the digest plus the one-thread baseline times.
struct Reference {
  std::string digest;
  std::map<std::string, double> baseline;
};

void write_reference(const std::string& path, const Reference& ref) {
  std::ofstream out(path);
  for (const auto& [name, value] : ref.baseline) {
    out << "baseline " << name << ' ' << value << '\n';
  }
  out << ref.digest;
  if (!out) throw std::runtime_error("cannot write " + path);
}

Reference read_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("baseline ", 0) == 0) {
      std::istringstream fields(line.substr(9));
      std::string name;
      double value = 0.0;
      fields >> name >> value;
      ref.baseline[name] = value;
    } else {
      ref.digest += line + '\n';
    }
  }
  return ref;
}

/// Compares a run's digest to the reference; a mismatch is reported on
/// stderr with the first differing line.
bool matches(const std::string& what, const std::string& got,
             const std::string& want) {
  if (got == want) return true;
  std::istringstream a(got);
  std::istringstream b(want);
  std::string la;
  std::string lb;
  while (std::getline(a, la) && std::getline(b, lb) && la == lb) {
  }
  std::fprintf(stderr, "mismatch in %s:\n  got:  %.200s\n  want: %.200s\n",
               what.c_str(), la.c_str(), lb.c_str());
  return false;
}

// --- workload inputs ----------------------------------------------------------

struct Paths {
  std::string dir;
  [[nodiscard]] std::string file(const std::string& name) const {
    return (std::filesystem::path(dir) / name).string();
  }
};

/// Seeded Fisher-Yates shuffle of 0..n-1.
std::vector<std::size_t> shuffled(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

/// The co-expression input: the microarray `gsb pipeline` generates by
/// default (seed 2005, genes/40 modules), its gene rows and array columns
/// shuffled by the workload seed.  Enumeration time and memory grow like
/// 2^omega, and omega of an independent draw ranges from 19 to 25, so
/// independent draws would spread pipeline_s and peak RSS by 2-3x between
/// seeds.  A shuffle keeps the correlation graph isomorphic while every
/// vertex id, and so every checked output, changes with the seed.
bio::SyntheticMicroarray make_microarray(const Config& c) {
  bio::MicroarrayConfig config;
  config.genes = c.genes();
  config.samples = c.samples();
  config.modules = c.genes() / 40;  // the CLI default
  util::Rng structure(2005);        // the CLI's default --seed
  const bio::SyntheticMicroarray base = bio::generate_microarray(config, structure);
  util::Rng rng(c.seed);
  const auto rows = shuffled(config.genes, rng);
  const auto cols = shuffled(config.samples, rng);
  bio::SyntheticMicroarray data;
  data.expression = bio::ExpressionMatrix(config.genes, config.samples);
  for (std::size_t g = 0; g < config.genes; ++g) {
    for (std::size_t a = 0; a < config.samples; ++a) {
      data.expression.at(g, a) = base.expression.at(rows[g], cols[a]);
    }
  }
  return data;
}

/// The myogenic input: bench_common.h's analog at its default seed (2005:
/// 2,895 vertices, omega 19), vertex ids relabelled by the workload seed —
/// for the same reason as the co-expression shuffle: the enumeration's
/// cost follows the analog's clique number, which independent draws vary.
bench::Workload make_myogenic(const Config& c) {
  bench::BenchConfig config;
  config.scale = c.myogenic_scale();
  config.seed = 2005;
  bench::Workload base = bench::myogenic_workload(config);
  util::Rng rng(c.seed);
  const auto label = shuffled(base.graph.order(), rng);
  bench::Workload out = base;
  out.graph = graph::Graph(base.graph.order());
  for (graph::VertexId u = 0; u < base.graph.order(); ++u) {
    for (const graph::VertexId v : base.graph.neighbor_list(u)) {
      if (u < v) {
        out.graph.add_edge(static_cast<graph::VertexId>(label[u]),
                           static_cast<graph::VertexId>(label[v]));
      }
    }
  }
  return out;
}

std::size_t myogenic_init_k(std::size_t omega) {
  return omega > 13 ? omega - 10 : 3;
}

// --- the pipeline chains --------------------------------------------------------

/// What one pipeline run measured, beside its checked outcome.
struct ChainRun {
  Outcome outcome;
  double wall = 0.0;
  bool stream_ok = true;  ///< the .gsbc re-read matched the run's spectrum
  int root = -1;          ///< the run's root span (traced runs)
  core::ParallelEnumerationStats parallel;   ///< threads > 1
  core::MaxCliqueResult maximum;
  bio::TiledCorrelationResult built;
  storage::GsbcWriteStats written;
  std::uint64_t gsbg_bytes = 0;
  std::size_t tracked_peak = 0;
  std::vector<core::Clique> cliques;  ///< collected (myogenic-cliques)
};

/// Re-reads a .gsbc end to end through GsbcReader with its checksum
/// verified and returns its size spectrum.
std::map<std::size_t, std::uint64_t> reread_spectrum(const std::string& path) {
  storage::GsbcReader::Options options;
  options.verify_checksum = true;
  auto reader = storage::GsbcReader::open(path, options);
  return analysis::clique_spectrum(reader).size_histogram;
}

/// Walks one word per page of the mapped CSR, as the pipeline's prefetch
/// stage does.
void touch_pages(const storage::MappedGraph& mapped) {
  std::uint64_t sum = 0;
  const auto offsets = mapped.csr_offsets();
  for (std::size_t i = 0; i < offsets.size(); i += 512) sum += offsets[i];
  const auto targets = mapped.csr_targets();
  for (std::size_t i = 0; i < targets.size(); i += 1024) sum += targets[i];
  asm volatile("" : : "r"(sum));
}

/// coexpr-ooc through pipeline::run_analysis, the path `gsb pipeline
/// --out-of-core --clique-out` takes (staged, as the CLI default is).
ChainRun coexpr_untraced(const bio::ExpressionMatrix& raw, const Paths& paths,
                         std::size_t threads) {
  ChainRun run;
  bio::ExpressionMatrix expression = raw;
  const std::string gsbg = paths.file("coexpr.gsbg");
  const std::string gsbc = paths.file("coexpr.gsbc");
  util::Timer timer;
  bio::quantile_normalize(expression);
  bio::TiledCorrelationOptions tiled;
  tiled.method = bio::CorrelationMethod::kSpearman;
  tiled.threshold = 0.70;
  tiled.tile_rows = 512;
  tiled.threads = threads;
  run.built = bio::build_correlation_gsbg(expression, gsbg, tiled);
  expression = bio::ExpressionMatrix();
  auto mapped = storage::MappedGraph::open(gsbg);
  pipeline::AnalysisOptions options;
  options.range = core::SizeRange{4, 0};
  options.threads = threads;
  options.clique_out = gsbc;
  options.original_id = [&mapped](graph::VertexId v) {
    return mapped.permutation().empty() ? v : mapped.permutation()[v];
  };
  options.prefetch = &mapped;
  options.overlap = false;
  const auto result = pipeline::run_analysis(mapped.view(), options);
  run.wall = timer.seconds();
  run.outcome.edges = mapped.num_edges();
  run.outcome.omega = result.maximum.clique.size();
  run.outcome.spectrum = reread_spectrum(gsbc);
  run.stream_ok = run.outcome.spectrum == result.spectrum.size_histogram;
  for (const auto& p : result.paracliques) run.outcome.paracliques.push_back(p.members);
  run.outcome.hubs = result.hubs;
  return run;
}

/// coexpr-ooc as the same calls in the same staged order, each wrapped in
/// a span: the traced pass, and (at one thread) the reference run.
ChainRun coexpr_staged(const bio::ExpressionMatrix& raw, const Paths& paths,
                       std::size_t threads, SpanRecorder* rec) {
  ChainRun run;
  bio::ExpressionMatrix expression = raw;
  const std::string gsbg = paths.file("coexpr.gsbg");
  const std::string gsbc = paths.file("coexpr.gsbc");
  util::global_memory_tracker().reset_peak();
  util::Timer timer;
  {
    Scope root(rec, "pipeline.run");
    run.root = root.index();
    {
      Scope s(rec, "bio.quantile_normalize");
      bio::quantile_normalize(expression);
    }
    bio::TiledCorrelationOptions tiled;
    tiled.method = bio::CorrelationMethod::kSpearman;
    tiled.threshold = 0.70;
    tiled.tile_rows = 512;
    tiled.threads = threads;
    {
      Scope s(rec, "bio.build_correlation_gsbg");
      run.built = bio::build_correlation_gsbg(expression, gsbg, tiled);
    }
    expression = bio::ExpressionMatrix();
    std::optional<storage::MappedGraph> mapped;
    {
      Scope s(rec, "storage.MappedGraph::open");
      mapped.emplace(storage::MappedGraph::open(gsbg));
    }
    const graph::GraphView view = mapped->view();
    run.gsbg_bytes = mapped->file_bytes();
    {
      Scope s(rec, "pipeline.prefetch");
      touch_pages(*mapped);
    }
    {
      Scope s(rec, "core.maximum_clique");
      run.maximum = core::maximum_clique(view);
    }
    std::optional<storage::GsbcWriter> writer;
    {
      Scope s(rec, "storage.GsbcWriter::open");
      writer.emplace(gsbc, view.order());
    }
    std::vector<std::uint32_t> participation(view.order(), 0);
    analysis::CliqueSpectrum spectrum;
    std::vector<graph::VertexId> members;
    const auto perm = mapped->permutation();
    const core::CliqueCallback sink =
        [&](std::span<const graph::VertexId> clique) {
          Scope s(rec, "pipeline.sink");
          for (const auto v : clique) ++participation[v];
          spectrum.add(clique.size());
          members.assign(clique.begin(), clique.end());
          if (!perm.empty()) {
            for (auto& v : members) v = perm[v];
          }
          Scope a(rec, "storage.GsbcWriter::append");
          writer->append(members);
        };
    if (threads == 1) {
      Scope s(rec, "core.enumerate_maximal_cliques");
      core::CliqueEnumeratorOptions options;
      options.range = core::SizeRange{4, 0};
      core::enumerate_maximal_cliques(view, sink, options);
    } else {
      Scope s(rec, "core.enumerate_maximal_cliques_parallel");
      core::ParallelOptions options;
      options.range = core::SizeRange{4, 0};
      options.threads = threads;
      run.parallel = core::enumerate_maximal_cliques_parallel(view, sink, options);
    }
    {
      Scope s(rec, "storage.GsbcWriter::close");
      run.written = writer->close();
    }
    spectrum.finalize();
    std::vector<analysis::Paraclique> paracliques;
    {
      Scope s(rec, "analysis.extract_all_paracliques");
      analysis::ParacliqueOptions para;
      para.glom = 1;
      paracliques = analysis::extract_all_paracliques(view, 5, para);
    }
    {
      Scope s(rec, "analysis.top_hubs");
      run.outcome.hubs = analysis::top_hubs(view, participation, 10);
    }
    run.outcome.edges = mapped->num_edges();
    run.outcome.omega = run.maximum.clique.size();
    for (const auto& p : paracliques) run.outcome.paracliques.push_back(p.members);
    run.outcome.spectrum = spectrum.size_histogram;
  }
  run.wall = timer.seconds();
  run.tracked_peak = util::global_memory_tracker().peak();
  const auto reread = reread_spectrum(gsbc);
  run.stream_ok = reread == run.outcome.spectrum;
  run.outcome.spectrum = reread;
  return run;
}

/// myogenic-cliques through pipeline::run_analysis, the `gsb pipeline
/// --graph-file G.clq` path: load the text graph, analyze in memory.
ChainRun myogenic_untraced(const std::string& dimacs, std::size_t init_k,
                           std::size_t threads) {
  ChainRun run;
  util::Timer timer;
  const graph::Graph g = graph::load_graph(dimacs);
  pipeline::AnalysisOptions options;
  options.range = core::SizeRange{init_k, 0};
  options.threads = threads;
  options.overlap = false;
  auto result = pipeline::run_analysis(graph::GraphView(g), options);
  run.wall = timer.seconds();
  run.outcome.edges = g.num_edges();
  run.outcome.omega = result.maximum.clique.size();
  run.outcome.spectrum = result.spectrum.size_histogram;
  for (const auto& p : result.paracliques) run.outcome.paracliques.push_back(p.members);
  run.outcome.hubs = result.hubs;
  run.cliques = std::move(result.cliques);
  return run;
}

ChainRun myogenic_staged(const std::string& dimacs, std::size_t init_k,
                         std::size_t threads, SpanRecorder* rec) {
  ChainRun run;
  util::global_memory_tracker().reset_peak();
  util::Timer timer;
  {
    Scope root(rec, "pipeline.run");
    run.root = root.index();
    graph::Graph g;
    {
      Scope s(rec, "graph.load_graph");
      g = graph::load_graph(dimacs);
    }
    const graph::GraphView view(g);
    {
      Scope s(rec, "core.maximum_clique");
      run.maximum = core::maximum_clique(view);
    }
    core::CliqueCollector collector;
    const core::CliqueCallback collect = collector.callback();
    const core::CliqueCallback sink =
        [&](std::span<const graph::VertexId> clique) {
          Scope s(rec, "pipeline.sink");
          collect(clique);
        };
    if (threads == 1) {
      Scope s(rec, "core.enumerate_maximal_cliques");
      core::CliqueEnumeratorOptions options;
      options.range = core::SizeRange{init_k, 0};
      core::enumerate_maximal_cliques(view, sink, options);
    } else {
      Scope s(rec, "core.enumerate_maximal_cliques_parallel");
      core::ParallelOptions options;
      options.range = core::SizeRange{init_k, 0};
      options.threads = threads;
      run.parallel = core::enumerate_maximal_cliques_parallel(view, sink, options);
    }
    run.cliques = std::move(collector.cliques());
    {
      Scope s(rec, "analysis.clique_spectrum");
      run.outcome.spectrum = analysis::clique_spectrum(run.cliques).size_histogram;
    }
    std::vector<analysis::Paraclique> paracliques;
    {
      Scope s(rec, "analysis.extract_all_paracliques");
      analysis::ParacliqueOptions para;
      para.glom = 1;
      paracliques = analysis::extract_all_paracliques(view, 5, para);
    }
    {
      Scope s(rec, "analysis.top_hubs");
      run.outcome.hubs = analysis::top_hubs(view, run.cliques, 10);
    }
    run.outcome.edges = g.num_edges();
    run.outcome.omega = run.maximum.clique.size();
    for (const auto& p : paracliques) run.outcome.paracliques.push_back(p.members);
  }
  run.wall = timer.seconds();
  run.tracked_peak = util::global_memory_tracker().peak();
  return run;
}

// --- serving -------------------------------------------------------------------

/// `gsb serve --tcp 127.0.0.1:0 --cache --threads 2` in-process: the
/// server's event loop runs on its own thread until finish().
class ServeSession {
 public:
  ServeSession(const std::string& gsbg, const std::string& gsbc) {
    service::GraphSpec spec;
    spec.graph_path = gsbg;
    spec.cliques_path = gsbc;
    entry_ = catalog_.open("default", spec);
    service::TcpServerOptions options;
    options.threads = kThreads;
    options.cache = &cache_;
    options.stop = &stop_;
    server_.emplace(entry_, "127.0.0.1:0", options);
    thread_ = std::thread([this] { stats_ = server_->serve(); });
  }
  ~ServeSession() { finish(); }
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] const std::shared_ptr<service::GraphEntry>& entry() const {
    return entry_;
  }
  /// Stops the event loop (it drains first) and returns its counters.
  service::TcpServeStats finish() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
    return stats_;
  }

 private:
  service::GraphCatalog catalog_;
  std::shared_ptr<service::GraphEntry> entry_;
  service::ResultCache cache_{64u << 20};
  std::atomic<bool> stop_{false};
  std::optional<service::TcpServer> server_;
  service::TcpServeStats stats_;
  std::thread thread_;  // last: joined before the members it uses go
};

/// The traffic mix, by query kind (weights in percent).
struct KindWeight {
  service::QueryKind kind;
  int weight;
};
/// The serve-mixed traffic: ~70% point lookups, ~20% cliques-containing,
/// ~10% heavy kinds.  The myogenic-cliques traced pass serves it.
const std::vector<KindWeight> kMix = {
    {service::QueryKind::kNeighbors, 30},
    {service::QueryKind::kDegree, 25},
    {service::QueryKind::kCommonNeighbors, 15},
    {service::QueryKind::kCliquesContaining, 20},
    {service::QueryKind::kKcoreMembership, 3},
    {service::QueryKind::kInducedSubgraph, 3},
    {service::QueryKind::kParacliqueExpand, 2},
    {service::QueryKind::kTopHubs, 2},
};

/// Zipf(1.1) ranks over the vertices, mapped through a seeded shuffle so
/// the hot vertices are arbitrary ones.
class ZipfVertices {
 public:
  ZipfVertices(std::size_t n, util::Rng& rng)
      : perm_(shuffled(n, rng)), cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
      cdf_[r] = sum;
    }
    for (double& x : cdf_) x /= sum;
  }
  graph::VertexId draw(util::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto r = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
    return static_cast<graph::VertexId>(perm_[r]);
  }

 private:
  std::vector<std::size_t> perm_;
  std::vector<double> cdf_;
};

/// Draws \p count request lines from the mix over \p entry's graph.
perf::LoadPlan make_plan(const service::GraphEntry& entry,
                         const std::string& gsbc, std::uint64_t seed,
                         std::size_t count) {
  util::Rng rng(seed * 7919 + 17);
  const std::size_t n = entry.order();
  ZipfVertices zipf(n, rng);
  // Paraclique-expand seeds: subsets of stored cliques (original labels).
  std::vector<core::Clique> seeds;
  {
    auto reader = storage::GsbcReader::open(gsbc);
    std::vector<graph::VertexId> clique;
    while (seeds.size() < 4096 && reader.next(clique)) seeds.push_back(clique);
  }
  perf::LoadPlan plan;
  std::unordered_map<std::string, std::uint32_t> index;
  plan.sequence.reserve(count);
  int total_weight = 0;
  for (const auto& k : kMix) total_weight += k.weight;
  for (std::size_t i = 0; i < count; ++i) {
    int pick = static_cast<int>(rng.below(static_cast<std::uint64_t>(total_weight)));
    service::QueryKind kind = kMix.front().kind;
    for (const auto& k : kMix) {
      if (pick < k.weight) {
        kind = k.kind;
        break;
      }
      pick -= k.weight;
    }
    std::string line = service::query_kind_name(kind);
    auto vertex = [&] { return std::to_string(zipf.draw(rng)); };
    switch (kind) {
      case service::QueryKind::kNeighbors:
      case service::QueryKind::kDegree:
      case service::QueryKind::kCliquesContaining:
        line += ' ' + vertex();
        break;
      case service::QueryKind::kCommonNeighbors: {
        const graph::VertexId a = zipf.draw(rng);
        graph::VertexId b = zipf.draw(rng);
        if (b == a) b = static_cast<graph::VertexId>((a + 1) % n);
        line += ' ' + std::to_string(a) + ' ' + std::to_string(b);
        break;
      }
      case service::QueryKind::kKcoreMembership:
        line += ' ' + std::to_string(2 + rng.below(5)) + ' ' + vertex();
        break;
      case service::QueryKind::kInducedSubgraph: {
        const std::size_t size = 3 + rng.below(6);
        for (std::size_t j = 0; j < size; ++j) line += ' ' + vertex();
        break;
      }
      case service::QueryKind::kParacliqueExpand: {
        line += " 1";
        if (seeds.empty()) {
          line += ' ' + vertex();
          break;
        }
        const core::Clique& c = seeds[rng.below(seeds.size())];
        for (std::size_t j = 0; j < std::min<std::size_t>(3, c.size()); ++j) {
          line += ' ' + std::to_string(c[j]);
        }
        break;
      }
      case service::QueryKind::kTopHubs:
        line += ' ' + std::to_string(5 + 5 * rng.below(3));
        break;
    }
    const auto [it, inserted] =
        index.emplace(line, static_cast<std::uint32_t>(plan.pool.size()));
    if (inserted) plan.pool.push_back(line);
    plan.sequence.push_back(it->second);
  }
  return plan;
}

struct ServeMeasure {
  std::vector<perf::StepResult> steps;
  service::TcpServeStats stats;
  std::uint64_t reference_errors = 0;  ///< reference lines answering error:
  perf::LoadPlan plan;
};

/// The rate ladder within \p seconds, led by one unrecorded second at the
/// first rate that warms the cache, the page cache and the worker
/// threads.  The rungs behind the reported percentiles (10k and 40k) get
/// three times the time of the others, so one scheduling stall of a few
/// milliseconds cannot set their p99 alone.
std::vector<perf::LoadStep> ladder(const Config& c, double seconds) {
  static constexpr double kWeight[] = {1.0, 3.0, 1.0, 3.0, 1.0, 0.5};
  const std::vector<double> rates = c.rates();
  double units = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) units += kWeight[i];
  std::vector<perf::LoadStep> steps;
  steps.push_back({rates.front(), c.tiny ? 0.2 : 1.0, 0.0});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rung = seconds * kWeight[i] / units;
    const double warm = std::min(0.25, 0.2 * rung);
    steps.push_back({rates[i], warm, rung - warm});
  }
  return steps;
}

/// Runs the rate ladder against \p session and checks every response
/// against execute_batch of the same line.
ServeMeasure serve_ladder(const Config& c, ServeSession& session,
                          const std::string& gsbc, double seconds) {
  ServeMeasure m;
  const auto steps = ladder(c, seconds);
  std::size_t total = 0;
  for (const auto& s : steps) {
    total += static_cast<std::size_t>(s.rate * s.warmup_s) +
             static_cast<std::size_t>(s.rate * s.measure_s);
  }
  m.plan = make_plan(*session.entry(), gsbc, c.seed, total);
  service::BatchOptions batch;
  batch.threads = kThreads;
  const auto reference = service::execute_batch(session.entry(), m.plan.pool, batch);
  m.plan.expected.reserve(reference.responses.size());
  for (std::string response : reference.responses) {
    if (response.rfind("error:", 0) == 0) ++m.reference_errors;
    m.plan.expected.push_back(perf::fnv1a(response));
  }
  if (c.corrupt == "response") {
    // One flipped byte in the reference of the first measured request.
    const std::size_t first =
        static_cast<std::size_t>(steps[0].rate * steps[0].warmup_s) +
        static_cast<std::size_t>(steps[1].rate * steps[1].warmup_s);
    std::string bad = reference.responses[m.plan.sequence[first]];
    bad[bad.size() / 2] ^= 0x01;
    m.plan.expected[m.plan.sequence[first]] = perf::fnv1a(bad);
  }
  m.steps = perf::run_open_loop(session.port(), m.plan, steps, kConnections,
                                kMaxOutstanding, kLatencyLimitUs);
  m.steps.erase(m.steps.begin());  // the priming second
  m.stats = session.finish();
  return m;
}

/// Highest ladder rate meeting the limit, interpolated (geometrically, on
/// log p99) toward the first failing rate.
double knee_rps(const std::vector<perf::StepResult>& steps) {
  std::size_t passed = 0;
  while (passed < steps.size() && steps[passed].pass) ++passed;
  if (passed == 0) {
    const auto& s = steps.front();
    return s.rate * std::min(1.0, kLatencyLimitUs / std::max(s.p99_us, 1.0));
  }
  if (passed == steps.size()) return steps.back().rate;
  const auto& lo = steps[passed - 1];
  const auto& hi = steps[passed];
  double frac = 0.0;
  if (hi.failed == 0 && std::isfinite(hi.p99_us) && hi.p99_us > lo.p99_us &&
      hi.p99_us > kLatencyLimitUs) {
    frac = std::log(kLatencyLimitUs / std::max(lo.p99_us, 1.0)) /
           std::log(hi.p99_us / std::max(lo.p99_us, 1.0));
  }
  frac = std::clamp(frac, 0.0, 1.0);
  return lo.rate * std::pow(hi.rate / lo.rate, frac);
}

void print_steps(const std::vector<perf::StepResult>& steps) {
  std::printf("%-8s %8s %4s %6s %10s %10s %10s %8s %7s %9s %5s\n", "rate",
              "sent", "win", "failed", "p50_us", "p99_us", "late99_us",
              "backlog", "distinct", "done_rps", "pass");
  for (const auto& s : steps) {
    std::printf("%-8.0f %8llu %4zu %6llu %10.1f %10.1f %10.1f %8llu %7llu %9.0f %5s%s\n",
                s.rate, static_cast<unsigned long long>(s.attempted), s.windows,
                static_cast<unsigned long long>(s.failed), s.p50_us, s.p99_us,
                s.late_p99_us, static_cast<unsigned long long>(s.backlog_max),
                static_cast<unsigned long long>(s.distinct), s.completed_rps,
                s.pass ? "yes" : "no", s.backlog_growing ? " (backlog grows)" : "");
  }
}

// --- results ------------------------------------------------------------------------

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, value, unit);
  }
  void fail(std::uint64_t n, bool wrong_output) {
    failed += n;
    if (wrong_output && n > 0) correct = false;
  }
  void print() const {
    std::printf("%-36s %18s  %s\n", "metric", "value", "unit");
    for (const auto& [name, value, unit] : metrics) {
      std::printf("%-36s %18.6f  %s\n", name.c_str(), value, unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto& [name, value, unit] : metrics) {
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value, unit.c_str());
      first = false;
    }
    std::printf("}}\n");
  }
};

void count_steps(Result& result, const ServeMeasure& m) {
  for (const auto& s : m.steps) {
    result.attempted += s.attempted;
    result.fail(s.busy + s.unanswered, false);
    result.fail(s.mismatched, true);
  }
  result.fail(m.reference_errors, true);
}


// --- reference -------------------------------------------------------------------

/// One-thread staged run (and, for coexpr-ooc, the
/// in-core builder's edge count): the reference every measured run is
/// compared with, and the traced pass's single-thread baseline.
int cmd_reference(const Config& c) {
  const std::string dir = std::filesystem::path(c.ref_path).parent_path().string();
  Paths paths{(std::filesystem::path(dir) / "reference").string()};
  std::filesystem::create_directories(paths.dir);
  Reference ref;
  Outcome outcome;
  if (c.workload == "coexpr-ooc") {
    const auto data = make_microarray(c);
    SpanRecorder rec;
    const ChainRun run = coexpr_staged(data.expression, paths, 1, &rec);
    if (!run.stream_ok) throw std::runtime_error("reference .gsbc re-read differs");
    outcome = run.outcome;
    bio::ExpressionMatrix normalized = data.expression;
    bio::quantile_normalize(normalized);
    bio::CorrelationGraphOptions options;
    options.method = bio::CorrelationMethod::kSpearman;
    options.threshold = 0.70;
    options.threads = 1;
    util::Rng rng(c.seed);
    outcome.edges = bio::build_correlation_graph(normalized, options, rng)
                        .graph.num_edges();
    ref.baseline["bio.correlate_1t_s"] =
        rec.total_seconds("bio.build_correlation_gsbg");
    ref.baseline["core.enumerate_1t_s"] =
        rec.self_total("core.enumerate_maximal_cliques");
  } else {
    const auto workload = make_myogenic(c);
    const std::string dimacs = paths.file("myogenic.clq");
    graph::save_graph(workload.graph, dimacs, "dimacs");
    SpanRecorder rec;
    const ChainRun run =
        myogenic_staged(dimacs, myogenic_init_k(workload.omega), 1, &rec);
    outcome = run.outcome;
    ref.baseline["core.enumerate_1t_s"] =
        rec.self_total("core.enumerate_maximal_cliques");
  }
  if (c.corrupt == "clique" && !outcome.spectrum.empty()) {
    // Drop one clique from the reference.
    auto it = outcome.spectrum.begin();
    if (--it->second == 0) outcome.spectrum.erase(it);
  }
  ref.digest = outcome.digest();
  write_reference(c.ref_path, ref);
  std::filesystem::remove_all(paths.dir);
  return 0;
}

// --- measured runs -----------------------------------------------------------------

/// The workload's input, generated by set-up: the microarray, or the
/// myogenic graph as a DIMACS file with its Init_K.
struct Setup {
  std::vector<double> seconds;
  bio::SyntheticMicroarray microarray;
  std::string dimacs;
  std::size_t init_k = 0;
};

/// Set-up, repeated at least \p min_reps times and for at least
/// \p min_seconds (at most 500 times).
Setup set_up(const Config& c, const Paths& paths, int min_reps,
             double min_seconds, SpanRecorder* rec) {
  Setup s;
  util::Timer total;
  for (int rep = 0;
       rep < 500 && (rep < min_reps || total.seconds() < min_seconds);
       ++rep) {
    util::Timer timer;
    if (c.workload == "coexpr-ooc") {
      Scope span(rec, "bio.generate_microarray");
      s.microarray = make_microarray(c);
    } else {
      bench::Workload workload;
      {
        Scope span(rec, "bench.myogenic_workload");
        workload = make_myogenic(c);
      }
      s.init_k = myogenic_init_k(workload.omega);
      s.dimacs = paths.file("myogenic.clq");
      Scope span(rec, "graph.save_graph");
      graph::save_graph(workload.graph, s.dimacs, "dimacs");
    }
    s.seconds.push_back(timer.seconds());
  }
  return s;
}

/// Writes the serve artifacts of a traced myogenic run (the `.gsbg`, the
/// `.gsbc` and its `.gsbci`) and starts the server over them.
std::unique_ptr<ServeSession> serve_myogenic_result(const Paths& paths,
                                                    const Setup& s,
                                                    const ChainRun& run) {
  const graph::Graph g = graph::load_graph(s.dimacs);
  storage::write_gsbg_file(g, paths.file("myogenic.gsbg"));
  {
    storage::GsbcWriter writer(paths.file("myogenic.gsbc"), g.order());
    for (const auto& clique : run.cliques) writer.append(clique);
    writer.close();
  }
  service::build_clique_index(paths.file("myogenic.gsbc"),
                              service::default_index_path(paths.file("myogenic.gsbc")));
  return std::make_unique<ServeSession>(paths.file("myogenic.gsbg"),
                                        paths.file("myogenic.gsbc"));
}

/// Checks one pipeline run against the reference.
void check_run(Result& result, const ChainRun& run, const Reference& ref) {
  ++result.attempted;
  const bool ok = run.stream_ok &&
                  matches("pipeline output", run.outcome.digest(), ref.digest);
  result.fail(ok ? 0 : 1, true);
}

/// One untraced pipeline run.
ChainRun pipeline_once(const Config& c, const Paths& paths, const Setup& s) {
  if (c.workload == "coexpr-ooc") {
    return coexpr_untraced(s.microarray.expression, paths, kThreads);
  }
  return myogenic_untraced(s.dimacs, s.init_k, kThreads);
}

/// The mean set-up time of one batch of set-ups lasting \p seconds.
double setup_batch(const Config& c, const Paths& scratch, double seconds) {
  const Setup s = set_up(c, scratch, 3, seconds, nullptr);
  return std::accumulate(s.seconds.begin(), s.seconds.end(), 0.0) /
         static_cast<double>(s.seconds.size());
}

/// The measured run: set-up, then pipeline runs for --seconds (at least
/// three); pipeline_s is their median.
///
/// setup_s is the median over batches of set-ups, each batch's value its
/// mean set-up time.  On a shared host one set-up takes either of two
/// speeds, in phases of about half a second, so a median over single
/// set-ups flips between the two from run to run; a batch of up to a
/// second averages over the phases, as a pipeline run does.  Batches
/// follow every pipeline run and take a quarter of its time, so they are
/// spread over the whole run.
int cmd_run_untraced(const Config& c, const Paths& paths, const Reference& ref) {
  Result result;
  const Paths scratch{paths.file("setup")};
  std::filesystem::create_directories(scratch.dir);
  const Setup s = set_up(c, paths, 5, 0.0, nullptr);
  std::vector<double> setup_batches;
  std::vector<double> pipeline_seconds;
  util::Timer timer;
  while (pipeline_seconds.size() < 3 || timer.seconds() < c.seconds) {
    const ChainRun run = pipeline_once(c, paths, s);
    pipeline_seconds.push_back(run.wall);
    check_run(result, run, ref);
    const double budget = 0.25 * run.wall;
    for (double spent = 0.0; spent < budget;) {
      util::Timer batch;
      setup_batches.push_back(
          setup_batch(c, scratch, std::clamp(budget - spent, 0.2, 1.0)));
      spent += batch.seconds();
    }
  }
  std::vector<double> sorted = setup_batches;
  std::sort(sorted.begin(), sorted.end());
  std::printf("pipeline runs:");
  for (const double t : pipeline_seconds) std::printf(" %.3f", t);
  std::printf(" s\nset-up batches: %zu, mean set-up min %.6f median %.6f "
              "max %.6f s\n",
              sorted.size(), sorted.front(), median(sorted), sorted.back());
  result.add("setup_s", median(setup_batches), "s");
  result.add("pipeline_s", median(pipeline_seconds), "s");
  result.print();
  return 0;
}

/// Medians of per-call service timings over a sample of the plan.
struct ServiceCalls {
  double parse_us = 0.0;
  std::map<service::QueryKind, double> execute_us;
  std::map<service::QueryKind, double> share;  ///< of the sample
  double cached_line_us = 0.0;
  double records_per_clique_query = 0.0;
  double batch_qps = 0.0;
};

ServiceCalls time_service_calls(const std::shared_ptr<service::GraphEntry>& entry,
                                const perf::LoadPlan& plan, SpanRecorder& rec) {
  ServiceCalls out;
  Scope root(&rec, "bench.service_calls");
  const std::size_t sample = std::min<std::size_t>(4000, plan.sequence.size());
  std::vector<double> parse;
  std::map<service::QueryKind, std::vector<double>> execute;
  std::vector<double> cached;
  service::QueryEngine engine(entry);
  service::ResultCache cache(64u << 20);
  std::uint64_t clique_queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  const auto us = [](const std::chrono::steady_clock::time_point a,
                     const std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  for (std::size_t i = 0; i < sample; ++i) {
    const std::string& line = plan.pool[plan.sequence[i]];
    service::Query query;
    auto t0 = std::chrono::steady_clock::now();
    {
      Scope s(&rec, "service.parse_query");
      query = service::parse_query(line);
    }
    auto t1 = std::chrono::steady_clock::now();
    {
      Scope s(&rec, "service.QueryEngine::execute");
      engine.execute(query);
    }
    auto t2 = std::chrono::steady_clock::now();
    parse.push_back(us(t0, t1));
    execute[query.kind].push_back(us(t1, t2));
    if (query.kind == service::QueryKind::kCliquesContaining) ++clique_queries;
    service::execute_cached_line(engine, &cache, line, hits, misses);  // warm
    t0 = std::chrono::steady_clock::now();
    {
      Scope s(&rec, "service.execute_cached_line");
      service::execute_cached_line(engine, &cache, line, hits, misses);
    }
    cached.push_back(us(t0, std::chrono::steady_clock::now()));
  }
  out.parse_us = median(parse);
  for (const auto& k : kMix) {
    out.execute_us[k.kind] = median(execute[k.kind]);
    out.share[k.kind] = static_cast<double>(execute[k.kind].size()) /
                        static_cast<double>(sample);
  }
  out.cached_line_us = median(cached);
  out.records_per_clique_query =
      clique_queries ? static_cast<double>(engine.stats().records_decoded) /
                           static_cast<double>(clique_queries)
                     : 0.0;
  // The ceiling without transport: execute_batch at two threads, no cache.
  std::vector<std::string> lines;
  const std::size_t batch = std::min<std::size_t>(20000, plan.sequence.size());
  for (std::size_t i = 0; i < batch; ++i) lines.push_back(plan.pool[plan.sequence[i]]);
  service::BatchOptions options;
  options.threads = kThreads;
  util::Timer timer;
  {
    Scope s(&rec, "service.execute_batch");
    service::execute_batch(entry, lines, options);
  }
  out.batch_qps = static_cast<double>(lines.size()) / timer.seconds();
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double busy_imbalance(const std::vector<double>& busy) {
  if (busy.empty()) return 0.0;
  const double mean =
      std::accumulate(busy.begin(), busy.end(), 0.0) / static_cast<double>(busy.size());
  return ratio(*std::max_element(busy.begin(), busy.end()), mean);
}

/// The service and load-generator metrics.  A workload that does not serve
/// passes an empty measure (one zero step per rung) and no call timings,
/// so every one of them reads 0.
void add_serving_metrics(Result& result, const ServeMeasure& m,
                         const ServiceCalls& calls) {
  const auto of = [](const std::map<service::QueryKind, double>& by_kind,
                     service::QueryKind kind) {
    const auto it = by_kind.find(kind);
    return it == by_kind.end() ? 0.0 : it->second;
  };
  const auto& lookup_step = m.steps[1];
  const double hit_ratio =
      ratio(static_cast<double>(m.stats.cache_hits),
            static_cast<double>(m.stats.cache_hits + m.stats.cache_misses));
  double miss_cost = calls.parse_us;
  for (const auto& k : kMix) miss_cost += of(calls.share, k.kind) * of(calls.execute_us, k.kind);
  const double in_process = hit_ratio * calls.cached_line_us + (1.0 - hit_ratio) * miss_cost;
  result.add("service.parse_us", calls.parse_us, "us");
  for (const auto& k : kMix) {
    result.add(std::string("service.execute_us.") + service::query_kind_name(k.kind),
               of(calls.execute_us, k.kind), "us");
  }
  result.add("service.cached_line_us", calls.cached_line_us, "us");
  result.add("service.cache_hit_ratio", hit_ratio, "ratio");
  result.add("service.records_per_clique_query", calls.records_per_clique_query, "count");
  result.add("service.batch_qps", calls.batch_qps, "1/s");
  result.add("service.transport_us", lookup_step.p50_us - in_process, "us");
  result.add("service.busy", static_cast<double>(m.stats.busy_rejections), "count");
  result.add("service.timeouts", static_cast<double>(m.stats.timeouts), "count");
  result.add("service.protocol_errors", static_cast<double>(m.stats.protocol_errors), "count");
  result.add("service.disconnects", static_cast<double>(m.stats.disconnects), "count");
  double late = 0.0;
  std::uint64_t backlog = 0;
  std::uint64_t sent = 0;
  std::uint64_t distinct = 0;
  for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
    late = std::max(late, m.steps[i].late_p99_us);
    backlog = std::max(backlog, m.steps[i].backlog_max);
  }
  for (const auto& step : m.steps) {
    sent += step.attempted;
    distinct += step.distinct;
  }
  // The serving end-to-end numbers.  On a shared VM whose vCPUs are
  // stolen under load they spread far beyond any usable bound between
  // runs, so they are reported here, ungated.
  result.add("serve_p50_us", m.steps[1].p50_us, "us");
  result.add("serve_p99_us", m.steps[1].p99_us, "us");
  result.add("serve_p99_us.r40k", m.steps[3].p99_us, "us");
  result.add("serve_max_rps", m.steps.back().completed_rps, "req/s");
  result.add("loadgen.knee_rps", knee_rps(m.steps), "req/s");
  result.add("loadgen.late_p99_us", late, "us");
  result.add("loadgen.backlog_max", static_cast<double>(backlog), "count");
  result.add("loadgen.repeat_pct", 100.0 * ratio(static_cast<double>(sent - distinct), static_cast<double>(sent)), "%");
}

/// The traced pass: untraced pipeline runs for the overhead baseline and
/// traced ones with a span around every module call.  On myogenic-cliques
/// the serve ladder over the traced run's result and per-call service
/// timings follow.
int cmd_run_traced(const Config& c, const Paths& paths, const Reference& ref) {
  Result result;
  SpanRecorder rec;
  Setup s;
  {
    Scope root(&rec, "bench.setup");
    s = set_up(c, paths, 1, 0.0, &rec);
  }
  // Untraced and traced runs in ABBA order, so the first run's cold
  // start is charged to neither side; the per-layer numbers come from the
  // last traced run, the overhead from the medians.
  const std::size_t abba_pairs = c.workload == "coexpr-ooc" ? 2 : 3;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  ChainRun traced;
  for (std::size_t i = 0; i < 2 * abba_pairs; ++i) {
    if (i % 4 == 1 || i % 4 == 2) {
      traced = c.workload == "coexpr-ooc"
                   ? coexpr_staged(s.microarray.expression, paths, kThreads, &rec)
                   : myogenic_staged(s.dimacs, s.init_k, kThreads, &rec);
      traced_s.push_back(traced.wall);
      check_run(result, traced, ref);
    } else {
      const ChainRun untraced = pipeline_once(c, paths, s);
      untraced_s.push_back(untraced.wall);
      check_run(result, untraced, ref);
    }
  }
  const bool coexpr = c.workload == "coexpr-ooc";
  ServeMeasure m;
  ServiceCalls calls;
  if (coexpr) {
    m.steps.resize(c.rates().size());
  } else {
    const auto session = serve_myogenic_result(paths, s, traced);
    m = serve_ladder(c, *session, paths.file("myogenic.gsbc"), 0.5 * c.seconds);
    count_steps(result, m);
    print_steps(m.steps);
    calls = time_service_calls(session->entry(), m.plan, rec);
  }

  // --- per-layer metrics -------------------------------------------------
  const int root = traced.root;
  const double wall = rec.spans()[static_cast<std::size_t>(root)].seconds();
  const double enumerate_s =
      rec.self_total("core.enumerate_maximal_cliques_parallel", root);
  const double correlate_s = rec.self_total("bio.build_correlation_gsbg", root);
  const double n = static_cast<double>(c.genes());
  const auto& base = traced.parallel.base;
  std::uint64_t sublists = 0, candidates = 0, pairs = 0, present = 0;
  for (const auto& level : base.levels) {
    sublists += level.sublists;
    candidates += level.candidates;
    pairs += level.pairs_checked;
    present += level.edges_present;
  }
  const double enumerate_1t = ref.baseline.count("core.enumerate_1t_s")
                                  ? ref.baseline.at("core.enumerate_1t_s")
                                  : 0.0;
  const double correlate_1t = ref.baseline.count("bio.correlate_1t_s")
                                  ? ref.baseline.at("bio.correlate_1t_s")
                                  : 0.0;
  result.add("bio.normalize_s", rec.total_seconds("bio.quantile_normalize", root), "s");
  result.add("bio.correlate_s", correlate_s, "s");
  result.add("bio.correlate_1t_s", correlate_1t, "s");
  result.add("bio.corr_pairs_per_s", coexpr ? ratio(n * (n - 1) / 2, correlate_s) : 0.0, "1/s");
  result.add("bio.edges", coexpr ? static_cast<double>(traced.built.edges) : 0.0, "count");
  result.add("bio.build_peak_tracked_mb",
             static_cast<double>(traced.built.peak_tracked_bytes) / kMiB, "MB");
  result.add("storage.gsbg_mb", static_cast<double>(traced.gsbg_bytes) / kMiB, "MB");
  result.add("storage.open_s", rec.total_seconds("storage.MappedGraph::open", root), "s");
  result.add("storage.gsbc_append_s", rec.total_seconds("storage.GsbcWriter::append", root), "s");
  result.add("storage.gsbc_close_s", rec.total_seconds("storage.GsbcWriter::close", root), "s");
  result.add("storage.gsbc_mb", static_cast<double>(traced.written.file_bytes) / kMiB, "MB");
  result.add("core.max_clique_s", rec.total_seconds("core.maximum_clique", root), "s");
  result.add("core.max_clique_nodes", static_cast<double>(traced.maximum.tree_nodes), "count");
  result.add("core.enumerate_s", enumerate_s, "s");
  result.add("core.enumerate_1t_s", enumerate_1t, "s");
  result.add("core.enumerate_speedup", ratio(enumerate_1t, enumerate_s), "x");
  result.add("core.seed_s", base.seed_seconds, "s");
  result.add("core.cliques", static_cast<double>(base.total_maximal), "count");
  result.add("core.sublists", static_cast<double>(sublists), "count");
  result.add("core.candidates", static_cast<double>(candidates), "count");
  result.add("core.pairs_checked", static_cast<double>(pairs), "count");
  result.add("core.pair_hit_ratio", ratio(static_cast<double>(present), static_cast<double>(pairs)), "ratio");
  result.add("core.level_peak_mb", static_cast<double>(base.peak_bytes_actual) / kMiB, "MB");
  result.add("core.level_peak_formula_mb", static_cast<double>(base.peak_bytes_formula) / kMiB, "MB");
  result.add("parallel.busy_imbalance",
             busy_imbalance(traced.parallel.thread_busy_seconds), "ratio");
  result.add("analysis.paraclique_s", rec.total_seconds("analysis.extract_all_paracliques", root), "s");
  result.add("analysis.paracliques", static_cast<double>(traced.outcome.paracliques.size()), "count");
  result.add("analysis.hubs_s", rec.total_seconds("analysis.top_hubs", root), "s");
  result.add("util.tracked_peak_mb", static_cast<double>(traced.tracked_peak) / kMiB, "MB");
  double stage_sum = 0.0;
  for (const auto& [layer, seconds] : rec.layer_self(root)) stage_sum += seconds;
  result.add("pipeline.stage_sum_s", stage_sum, "s");
  result.add("pipeline.unattributed_pct", 100.0 * ratio(wall - stage_sum, wall), "%");
  result.add("pipeline.tracing_overhead_pct",
             100.0 * ratio(median(traced_s) - median(untraced_s), median(untraced_s)),
             "%");

  add_serving_metrics(result, m, calls);
  result.add("error_pct", 100.0 * ratio(static_cast<double>(result.failed), static_cast<double>(result.attempted)), "%");

  // --- traced-pass report ------------------------------------------------
  if (!c.out_prefix.empty()) {
    std::FILE* trace = std::fopen((c.out_prefix + ".trace.json").c_str(), "w");
    if (trace == nullptr) throw std::runtime_error("cannot write trace file");
    rec.write_chrome_trace(trace, host_json(c));
    std::fclose(trace);
    std::FILE* table = std::fopen((c.out_prefix + ".selftime.txt").c_str(), "w");
    if (table == nullptr) throw std::runtime_error("cannot write self-time table");
    std::fprintf(table, "%s traced pipeline run: %.6f s wall\n%-12s %12s %8s\n",
                 c.workload.c_str(), wall, "layer", "self_s", "share");
    for (const auto& [layer, seconds] : rec.layer_self(root)) {
      std::fprintf(table, "%-12s %12.6f %7.2f%%\n", layer.c_str(), seconds,
                   100.0 * ratio(seconds, wall));
    }
    std::fprintf(table, "%-12s %12.6f %7.2f%%\n", "unattributed", wall - stage_sum,
                 100.0 * ratio(wall - stage_sum, wall));
    std::fclose(table);
  }
  result.print();
  return 0;
}

int cmd_run(const Config& c) {
  const Reference ref = read_reference(c.ref_path);
  Paths paths{c.dir};
  std::filesystem::create_directories(paths.dir);
  std::printf("host %s\n", host_json(c).c_str());
  return c.trace ? cmd_run_traced(c, paths, ref) : cmd_run_untraced(c, paths, ref);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config c = parse_args(argc, argv);
    if (c.command == "reference") return cmd_reference(c);
    if (c.command == "run") return cmd_run(c);
    throw std::runtime_error("unknown command '" + c.command + "'");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "gsb_perf: %s\n", error.what());
    return 1;
  }
}
