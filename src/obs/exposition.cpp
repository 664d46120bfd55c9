#include "obs/exposition.h"

#include <cstdio>

namespace gsb::obs {

namespace {

const char* type_keyword(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

void append_series_line(std::string& out, const std::string& name,
                        const std::string& suffix, const std::string& labels,
                        const std::string& extra_label,
                        std::uint64_t value) {
  out += name;
  out += suffix;
  if (!labels.empty() || !extra_label.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra_label.empty()) out += ',';
    out += extra_label;
    out += '}';
  }
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void append_json_series(std::string& out, const MetricSnapshot& m,
                        bool& first) {
  if (!first) out += ',';
  first = false;
  out += "{\"name\":\"";
  out += json_escape(m.name);
  out += "\"";
  if (!m.labels.empty()) {
    out += ",\"labels\":\"";
    out += json_escape(m.labels);
    out += "\"";
  }
  if (m.type == MetricType::kHistogram) {
    out += ",\"count\":";
    out += std::to_string(m.histogram.count);
    out += ",\"sum_micros\":";
    out += std::to_string(m.histogram.sum_micros);
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < m.histogram.buckets.size(); ++b) {
      if (b != 0) out += ',';
      out += std::to_string(m.histogram.buckets[b]);
    }
    out += "]}";
  } else {
    out += ",\"value\":";
    out += std::to_string(m.value);
    out += '}';
  }
}

}  // namespace

std::string render_prometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  out.reserve(snapshot.metrics.size() * 64);
  // HELP/TYPE are emitted once per family, on first encounter; later
  // same-name series (other label sets) join the family silently.
  std::vector<std::string> seen;
  for (const MetricSnapshot& m : snapshot.metrics) {
    bool announced = false;
    for (const std::string& s : seen) {
      if (s == m.name) {
        announced = true;
        break;
      }
    }
    if (!announced) {
      seen.push_back(m.name);
      if (!m.help.empty()) {
        out += "# HELP ";
        out += m.name;
        out += ' ';
        out += m.help;
        out += '\n';
      }
      out += "# TYPE ";
      out += m.name;
      out += ' ';
      out += type_keyword(m.type);
      out += '\n';
    }
    if (m.type == MetricType::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        cumulative += m.histogram.buckets[b];
        append_series_line(
            out, m.name, "_bucket", m.labels,
            "le=\"" + std::to_string(histogram_bucket_bound(b)) + "\"",
            cumulative);
      }
      cumulative += m.histogram.buckets[kHistogramBuckets];
      append_series_line(out, m.name, "_bucket", m.labels, "le=\"+Inf\"",
                         cumulative);
      append_series_line(out, m.name, "_sum", m.labels, {},
                         m.histogram.sum_micros);
      append_series_line(out, m.name, "_count", m.labels, {},
                         m.histogram.count);
    } else {
      append_series_line(out, m.name, "", m.labels, {}, m.value);
    }
  }
  return out;
}

std::string render_json(const RegistrySnapshot& snapshot) {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.type == MetricType::kCounter) append_json_series(out, m, first);
  }
  out += "],\"gauges\":[";
  first = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.type == MetricType::kGauge) append_json_series(out, m, first);
  }
  out += "],\"histograms\":[";
  first = true;
  for (const MetricSnapshot& m : snapshot.metrics) {
    if (m.type == MetricType::kHistogram) append_json_series(out, m, first);
  }
  out += "]}";
  return out;
}

std::string render_traces_json(const std::vector<Trace>& traces) {
  std::string out = "[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const Trace& t = traces[i];
    if (i != 0) out += ',';
    out += "{\"total_micros\":";
    out += std::to_string(t.total_micros);
    out += ",\"transport\":\"";
    out += json_escape(t.transport);
    out += "\",\"request\":\"";
    out += json_escape(t.request);
    out += "\",\"spans\":{";
    bool first = true;
    for (std::size_t s = 0; s < kNumSpans; ++s) {
      if (t.span_micros[s] == 0) continue;
      if (!first) out += ',';
      first = false;
      out += '"';
      out += span_name(static_cast<Span>(s));
      out += "\":";
      out += std::to_string(t.span_micros[s]);
    }
    out += "}}";
  }
  out += ']';
  return out;
}

std::string escape_multiline(const std::string& text) {
  std::string out;
  out.reserve(text.size() + text.size() / 8);
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string unescape_multiline(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      const char next = text[i + 1];
      if (next == '\\') {
        out += '\\';
        ++i;
        continue;
      }
      if (next == 'n') {
        out += '\n';
        ++i;
        continue;
      }
    }
    out += text[i];
  }
  return out;
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace gsb::obs
