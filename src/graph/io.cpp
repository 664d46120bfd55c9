#include "graph/io.h"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "util/io.h"

namespace gsb::graph {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("graph io: " + what);
}

std::ofstream open_out(const std::string& path, std::ios::openmode mode) {
  std::ofstream out(path, mode);
  if (!out) fail("cannot open '" + path + "' for writing");
  return out;
}

/// The bytes of the file at \p path, read through util::io so short reads
/// and EINTR are handled in one place (and so the fault shim can exercise
/// the loaders); nullopt when it cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  const int fd = util::io::open_for_read(path.c_str());
  if (fd < 0) return std::nullopt;
  std::string bytes;
  char chunk[1 << 16];
  while (true) {
    const ssize_t got = util::io::read_some(fd, chunk, sizeof(chunk));
    if (got < 0) {
      ::close(fd);
      fail("read failed for '" + path + "'");
    }
    if (got == 0) break;
    bytes.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return bytes;
}

std::string read_text_file(const std::string& path) {
  auto text = read_file(path);
  if (!text) fail("cannot open '" + path + "' for reading");
  return std::move(*text);
}

std::string read_stream(std::istream& in) {
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Calls \p fn on each line of \p text, split at '\n' as std::getline
/// splits it: a final newline ends the last line and starts no other.
template <typename Fn>
void for_each_line(std::string_view text, Fn&& fn) {
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    fn(text.substr(0, end));
    if (end == std::string_view::npos) break;
    text.remove_prefix(end + 1);
  }
}

/// Reads the tokens of one line the way `std::istream >>` reads them in the
/// C locale, so the text formats accept and reject what they did when each
/// line went through a std::istringstream.  Whitespace is what std::isspace
/// accepts; a number is an optional sign and decimal digits, stops at the
/// first non-digit, fails without digits or past 2^64 - 1, and a '-'
/// negates it modulo 2^64 (num_get's rule for unsigned types).
class LineTokens {
 public:
  explicit LineTokens(std::string_view line) : rest_(line) {}

  /// The next non-space character, or '\0' at the end of the line.
  char next_char() {
    skip_space();
    if (rest_.empty()) return '\0';
    const char c = rest_.front();
    rest_.remove_prefix(1);
    return c;
  }

  /// The next run of non-space characters (empty at the end of the line).
  std::string_view next_word() {
    skip_space();
    std::size_t len = 0;
    while (len < rest_.size() && !is_space(rest_[len])) ++len;
    const std::string_view word = rest_.substr(0, len);
    rest_.remove_prefix(len);
    return word;
  }

  std::optional<std::uint64_t> next_u64() {
    skip_space();
    bool negative = false;
    if (!rest_.empty() && (rest_.front() == '+' || rest_.front() == '-')) {
      negative = rest_.front() == '-';
      rest_.remove_prefix(1);
    }
    std::uint64_t value = 0;
    const auto [end, error] =
        std::from_chars(rest_.data(), rest_.data() + rest_.size(), value);
    if (error != std::errc{}) return std::nullopt;
    rest_.remove_prefix(static_cast<std::size_t>(end - rest_.data()));
    return negative ? 0 - value : value;
  }

 private:
  static bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }
  void skip_space() {
    while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
  }

  std::string_view rest_;
};

Graph parse_dimacs(std::string_view text) {
  std::uint64_t n = 0;
  bool have_problem = false;
  Graph g;
  for_each_line(text, [&](std::string_view line) {
    if (line.empty()) return;
    LineTokens tokens(line);
    const char kind = tokens.next_char();
    if (kind == 'c') return;
    if (kind == 'p') {
      const std::string_view tag = tokens.next_word();
      const auto order = tokens.next_u64();
      if (!order || !tokens.next_u64() || (tag != "edge" && tag != "col")) {
        fail("bad problem line");
      }
      n = *order;
      g = Graph(static_cast<std::size_t>(n));
      have_problem = true;
      return;
    }
    if (kind == 'e') {
      if (!have_problem) fail("edge before problem line");
      const auto u = tokens.next_u64();
      const auto v = u ? tokens.next_u64() : std::nullopt;
      if (!v || *u < 1 || *v < 1 || *u > n || *v > n) fail("bad edge line");
      g.add_edge(static_cast<VertexId>(*u - 1), static_cast<VertexId>(*v - 1));
      return;
    }
    fail("unrecognized line kind '" + std::string(1, kind) + "'");
  });
  if (!have_problem) fail("missing problem line");
  return g;
}

Graph parse_edge_list(std::string_view text) {
  bool have_n = false;
  std::uint64_t n = 0;
  Graph g;
  for_each_line(text, [&](std::string_view line) {
    LineTokens tokens(line.substr(0, line.find('#')));
    if (!have_n) {
      if (const auto order = tokens.next_u64()) {
        n = *order;
        g = Graph(static_cast<std::size_t>(n));
        have_n = true;
      }
      return;
    }
    const auto u = tokens.next_u64();
    const auto v = u ? tokens.next_u64() : std::nullopt;
    if (!v) return;
    if (*u >= n || *v >= n) fail("edge endpoint out of range");
    g.add_edge(static_cast<VertexId>(*u), static_cast<VertexId>(*v));
  });
  if (!have_n) fail("missing vertex-count header");
  return g;
}

}  // namespace

Graph read_dimacs(std::istream& in) { return parse_dimacs(read_stream(in)); }

Graph read_dimacs_file(const std::string& path) {
  return parse_dimacs(read_text_file(path));
}

void write_dimacs(const Graph& g, std::ostream& out,
                  const std::string& comment) {
  if (!comment.empty()) out << "c " << comment << "\n";
  out << "p edge " << g.order() << " " << g.num_edges() << "\n";
  for (const auto& [u, v] : g.edge_list()) {
    out << "e " << (u + 1) << " " << (v + 1) << "\n";
  }
}

void write_dimacs_file(const Graph& g, const std::string& path,
                       const std::string& comment) {
  auto out = open_out(path, std::ios::out);
  write_dimacs(g, out, comment);
}

Graph read_edge_list(std::istream& in) {
  return parse_edge_list(read_stream(in));
}

Graph read_edge_list_file(const std::string& path) {
  return parse_edge_list(read_text_file(path));
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out << g.order() << "\n";
  for (const auto& [u, v] : g.edge_list()) out << u << " " << v << "\n";
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  auto out = open_out(path, std::ios::out);
  write_edge_list(g, out);
}

namespace {
constexpr char kMagic[4] = {'G', 'S', 'B', 'G'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T take(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) fail("truncated binary graph");
  return value;
}
}  // namespace

Graph read_binary(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::string(magic, 4) != std::string(kMagic, 4)) {
    fail("bad magic");
  }
  const auto version = take<std::uint32_t>(in);
  if (version != kVersion) fail("unsupported version");
  const auto n = take<std::uint64_t>(in);
  const auto m = take<std::uint64_t>(in);
  Graph g(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto u = take<std::uint32_t>(in);
    const auto v = take<std::uint32_t>(in);
    if (u >= n || v >= n) fail("edge endpoint out of range");
    g.add_edge(u, v);
  }
  return g;
}

Graph read_binary_file(const std::string& path) {
  auto bytes = read_file(path);
  if (!bytes) fail("cannot open '" + path + "'");
  std::istringstream in(std::move(*bytes));
  return read_binary(in);
}

void write_binary(const Graph& g, std::ostream& out) {
  out.write(kMagic, 4);
  put<std::uint32_t>(out, kVersion);
  put<std::uint64_t>(out, g.order());
  put<std::uint64_t>(out, g.num_edges());
  for (const auto& [u, v] : g.edge_list()) {
    put<std::uint32_t>(out, u);
    put<std::uint32_t>(out, v);
  }
}

void write_binary_file(const Graph& g, const std::string& path) {
  // Crash-safe like the container writers: temp file, fsync, rename.
  std::ostringstream buffered;
  write_binary(g, buffered);
  const std::string bytes = buffered.str();
  util::io::FileWriter out(path);
  out.write(bytes.data(), bytes.size());
  out.commit();
}

std::string detect_graph_format(const std::string& path,
                                const std::string& format) {
  if (!format.empty()) return format;
  if (path.ends_with(".clq") || path.ends_with(".dimacs")) return "dimacs";
  if (path.ends_with(".bin")) return "binary";
  if (path.ends_with(".gsbg")) return "gsbg";
  if (path == "-") return "";  // sniffed from content
  return "edges";
}

namespace {

/// DIMACS vs edge-list sniff for streams without a telling filename: the
/// first non-blank line of a DIMACS file starts with 'c' or 'p'.
Graph read_text_sniffed(std::istream& in) {
  const std::string content = read_stream(in);
  const std::size_t first = content.find_first_not_of(" \t\n\r");
  const bool dimacs = first != std::string::npos &&
                      (content[first] == 'c' || content[first] == 'p');
  return dimacs ? parse_dimacs(content) : parse_edge_list(content);
}

}  // namespace

Graph load_graph(const std::string& path, const std::string& format) {
  const std::string kind = detect_graph_format(path, format);
  if (kind == "gsbg") {
    fail("'" + path + "' is a .gsbg container; open it with "
         "storage::MappedGraph (gsb does this automatically)");
  }
  if (path == "-") {
    if (kind == "dimacs") return read_dimacs(std::cin);
    if (kind == "edges") return read_edge_list(std::cin);
    if (kind.empty()) return read_text_sniffed(std::cin);
    fail("stdin supports only text formats (dimacs, edges)");
  }
  if (kind == "dimacs") return graph::read_dimacs_file(path);
  if (kind == "binary") return graph::read_binary_file(path);
  if (kind == "edges") return graph::read_edge_list_file(path);
  fail("unknown format '" + kind + "'");
}

void save_graph(const Graph& g, const std::string& path,
                const std::string& format, const std::string& comment) {
  const std::string kind = detect_graph_format(path, format);
  if (kind == "gsbg") {
    fail("write .gsbg containers through storage::write_gsbg_file");
  }
  if (path == "-") {
    if (kind == "dimacs" || kind.empty()) {
      return write_dimacs(g, std::cout, comment);
    }
    if (kind == "edges") return write_edge_list(g, std::cout);
    fail("stdout supports only text formats (dimacs, edges)");
  }
  if (kind == "dimacs") return write_dimacs_file(g, path, comment);
  if (kind == "binary") return write_binary_file(g, path);
  if (kind == "edges") return write_edge_list_file(g, path);
  fail("unknown format '" + kind + "'");
}

}  // namespace gsb::graph
