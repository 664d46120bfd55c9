#ifndef GSB_SERVICE_BATCH_EXECUTOR_H
#define GSB_SERVICE_BATCH_EXECUTOR_H

/// \file batch_executor.h
/// Fans a batch of independent query lines over the thread pool.
///
/// Queries are embarrassingly parallel — every request line is parsed and
/// executed by a per-thread QueryEngine over the shared read-only
/// GraphEntry, with responses written into their input slots, so batch
/// output is a function of the input sequence alone: the same bytes at
/// every thread count and with the cache on or off (service_test pins
/// both).  This mirrors StochSoCs' observation that throughput at genome
/// scale comes from many concurrent independent requests against one
/// resident model.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "service/graph_catalog.h"
#include "service/query_engine.h"
#include "service/result_cache.h"

namespace gsb::service {

struct BatchOptions {
  std::size_t threads = 0;       ///< 0 = hardware cores, 1 = run inline
  ResultCache* cache = nullptr;  ///< optional shared response cache
};

struct BatchResult {
  std::vector<std::string> responses;  ///< one per input line, input order
  QueryEngineStats engine;             ///< merged across worker engines
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t threads_used = 1;
};

/// Executes every line of \p lines against \p entry and returns the
/// responses in input order.  Per-line failures become `error:` responses;
/// the call itself only throws on setup problems (null entry).
BatchResult execute_batch(std::shared_ptr<const GraphEntry> entry,
                          const std::vector<std::string>& lines,
                          const BatchOptions& options = {});

/// One request line through parse -> cache -> engine, so every transport
/// serves identical bytes.  Successful responses are cached under (entry
/// epoch, canonical query); `error:` responses never are.  Its `parse`,
/// `cache_lookup` and `execute:<kind>` spans make the request breakdown.
std::string execute_cached_line(QueryEngine& engine, ResultCache* cache,
                                const std::string& line,
                                std::uint64_t& cache_hits,
                                std::uint64_t& cache_misses);

/// execute_cached_line inside the request's obs::RequestScope — the path
/// every request takes: stdin lines, socket workers and both branches of
/// execute_batch.  \p transport labels the request trace ("stream",
/// "unix", "tcp", "batch"); \p id tags its timeline events.
/// \p dispatched, when set, is when the request was handed to a worker;
/// the wait since then is the request's queue_wait.
std::string execute_request(
    QueryEngine& engine, ResultCache* cache, const std::string& line,
    const char* transport, std::uint64_t& cache_hits,
    std::uint64_t& cache_misses, std::uint64_t id = 0,
    std::optional<std::chrono::steady_clock::time_point> dispatched =
        std::nullopt);

}  // namespace gsb::service

#endif  // GSB_SERVICE_BATCH_EXECUTOR_H
