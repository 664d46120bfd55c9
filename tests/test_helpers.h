#ifndef GSB_TESTS_TEST_HELPERS_H
#define GSB_TESTS_TEST_HELPERS_H

/// Shared fixtures for the clique-algorithm test suites: seeded random
/// graphs, collector-based wrappers that return normalized clique sets
/// for order-insensitive comparison, and scratch .gsbg files.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "core/bron_kerbosch.h"
#include "core/clique.h"
#include "core/clique_enumerator.h"
#include "core/kose.h"
#include "core/parallel_enumerator.h"
#include "core/verify.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace gsb::test {

inline graph::Graph random_graph(std::size_t n, double p,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::gnp(n, p, rng);
}

inline std::vector<core::Clique> run_base_bk(const graph::Graph& g,
                                             const core::SizeRange& range = {}) {
  core::CliqueCollector out;
  core::base_bk(g, out.callback(), range);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_improved_bk(
    const graph::Graph& g, const core::SizeRange& range = {}) {
  core::CliqueCollector out;
  core::improved_bk(g, out.callback(), range);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_clique_enumerator(
    const graph::Graph& g, core::CliqueEnumeratorOptions options = {}) {
  core::CliqueCollector out;
  core::enumerate_maximal_cliques(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_parallel_enumerator(
    const graph::Graph& g, core::ParallelOptions options = {}) {
  core::CliqueCollector out;
  core::enumerate_maximal_cliques_parallel(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

inline std::vector<core::Clique> run_kose(const graph::Graph& g,
                                          core::KoseOptions options = {}) {
  core::CliqueCollector out;
  core::kose_ram(g, out.callback(), options);
  return core::normalize(std::move(out.cliques()));
}

/// Unique scratch .gsbg path, removed at scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             (stem + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++) + ".gsbg"))
                .string();
  }
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// Reference maximal cliques filtered to a size window.
inline std::vector<core::Clique> reference_in_range(
    const graph::Graph& g, const core::SizeRange& range) {
  return core::filter_by_size(core::reference_maximal_cliques(g), range);
}

}  // namespace gsb::test

#endif  // GSB_TESTS_TEST_HELPERS_H
