#ifndef GSB_OBS_EXPOSITION_H
#define GSB_OBS_EXPOSITION_H

/// Rendering the metrics registry and the slowest-request buffer for
/// scraping.
///
/// Two formats: Prometheus text exposition (HELP/TYPE comments, families
/// grouped, cumulative `_bucket{le=...}` histograms ending in `+Inf`)
/// and a compact single-line JSON document.  Because the service wire
/// protocols are newline-delimited — and binary response payloads are by
/// contract the exact line-protocol bytes — multi-line Prometheus text
/// travels escaped on one line (`escape_multiline`); `gsb query`
/// reverses it for display.

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeline.h"

namespace gsb::obs {

/// Prometheus text exposition format (multi-line, trailing newline).
std::string render_prometheus(const RegistrySnapshot& snapshot);

/// Single-line JSON: {"counters":[...],"gauges":[...],"histograms":[...]}.
/// Histogram buckets are per-bucket counts (not cumulative), overflow
/// last; the bound scheme is log2 microseconds (see metrics.h).
std::string render_json(const RegistrySnapshot& snapshot);

/// Single-line JSON array of the retained request traces, slowest first.
std::string render_traces_json(const std::vector<RequestTrace>& traces);

/// Reversible one-line framing: `\` -> `\\`, newline -> `\n`.
std::string escape_multiline(const std::string& text);
std::string unescape_multiline(const std::string& text);

/// JSON string body escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& text);

}  // namespace gsb::obs

#endif  // GSB_OBS_EXPOSITION_H
