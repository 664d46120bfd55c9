#ifndef GSB_GRAPH_IO_H
#define GSB_GRAPH_IO_H

/// \file io.h
/// Graph serialization: DIMACS .clq ASCII (the lingua franca of clique
/// benchmarks), a plain edge-list text format, and a compact binary format
/// for large instances.

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace gsb::graph {

/// --- DIMACS (ASCII) -------------------------------------------------------
/// Format:  `c` comment lines, one `p edge <n> <m>` line, `e <u> <v>` lines
/// with 1-based vertex indices.  The text readers read the whole input
/// once and tokenize it line by line with std::from_chars, accepting and
/// rejecting what `std::istream >>` does on each line.

/// Parses a DIMACS graph from a stream.  Throws std::runtime_error on
/// malformed input.
Graph read_dimacs(std::istream& in);
Graph read_dimacs_file(const std::string& path);
void write_dimacs(const Graph& g, std::ostream& out,
                  const std::string& comment = {});
void write_dimacs_file(const Graph& g, const std::string& path,
                       const std::string& comment = {});

/// --- edge list (ASCII) ------------------------------------------------------
/// First non-comment line: `<n>`; every following line `u v` (0-based).
/// `#` starts a comment.
Graph read_edge_list(std::istream& in);
Graph read_edge_list_file(const std::string& path);
void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

/// --- binary ------------------------------------------------------------------
/// Magic "GSBG", u32 version, u64 n, u64 m, then m (u32,u32) edge pairs,
/// little-endian.  (The mappable container format is .gsbg, in
/// storage/gsbg_format.h; this is the legacy stream format, kept for .bin.)
Graph read_binary(std::istream& in);
Graph read_binary_file(const std::string& path);
void write_binary(const Graph& g, std::ostream& out);
void write_binary_file(const Graph& g, const std::string& path);

/// --- unified front door -----------------------------------------------------
/// Canonical format names: "dimacs", "edges", "binary", "gsbg".

/// Returns \p format when non-empty; otherwise sniffs the path extension
/// (.clq/.dimacs -> dimacs, .bin -> binary, .gsbg -> gsbg, otherwise
/// edges).  "-" with no explicit format returns "" (content-sniffed).
std::string detect_graph_format(const std::string& path,
                                const std::string& format = {});

/// One loader for every command: reads \p path in the named or sniffed
/// format; path "-" reads standard input (text formats only there; with no
/// format given the content is sniffed — DIMACS lines start with 'c' or
/// 'p').  The "gsbg" container is not loadable through a stream; callers
/// open those via storage::MappedGraph (the CLI does this dispatch).
Graph load_graph(const std::string& path, const std::string& format = {});

/// Counterpart writer ("gsbg" rejected likewise; use storage's writer).
void save_graph(const Graph& g, const std::string& path,
                const std::string& format = {},
                const std::string& comment = {});

}  // namespace gsb::graph

#endif  // GSB_GRAPH_IO_H
