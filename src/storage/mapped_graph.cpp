#include "storage/mapped_graph.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bitset/dynamic_bitset.h"

namespace gsb::storage {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("gsbg: " + what);
}

/// Reads the fixed header fields out of the first 64 bytes.
GsbgHeader parse_header(const char* base, std::size_t bytes) {
  if (bytes < kHeaderBytes) fail("file shorter than header");
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) fail("bad magic");
  GsbgHeader header;
  std::memcpy(&header.version, base + 8, 4);
  std::memcpy(&header.flags, base + 12, 4);
  std::memcpy(&header.n, base + 16, 8);
  std::memcpy(&header.m, base + 24, 8);
  std::memcpy(&header.checksum, base + 32, 8);
  std::memcpy(&header.section_count, base + 40, 8);
  if (header.version != kVersion) {
    fail("unsupported version " + std::to_string(header.version));
  }
  return header;
}

}  // namespace

MappedGraph MappedGraph::open(const std::string& path,
                              const Options& options) {
  MappedGraph g;
  g.file_ = util::io::MappedFile(path, "gsbg");
  const char* base = g.file_.data();
  const std::size_t bytes = g.file_.size();

  g.header_ = parse_header(base, bytes);
  const std::uint64_t n = g.header_.n;
  // Sanity-bound n and m before any size arithmetic: vertex ids are 32-bit
  // and m <= n(n-1)/2, so a header that violates either is corrupt — and
  // letting it through would let (n+1)*8 etc. wrap past the mapping.
  if (n > (std::uint64_t{1} << 32)) fail("implausible vertex count");
  if (n > 0 && g.header_.m > n * (n - 1) / 2) fail("implausible edge count");
  if (n == 0 && g.header_.m != 0) fail("edges without vertices");
  const std::uint64_t nnz = 2 * g.header_.m;

  // --- section table ---------------------------------------------------------
  if (g.header_.section_count > 64) fail("implausible section count");
  const std::uint64_t table_end =
      kHeaderBytes + g.header_.section_count * kSectionEntryBytes;
  if (table_end > bytes) fail("truncated section table");
  g.sections_.reserve(g.header_.section_count);
  for (std::uint64_t i = 0; i < g.header_.section_count; ++i) {
    const char* entry = base + kHeaderBytes + i * kSectionEntryBytes;
    std::uint32_t kind = 0;
    GsbgSection section;
    std::memcpy(&kind, entry, 4);
    std::memcpy(&section.offset, entry + 8, 8);
    std::memcpy(&section.size, entry + 16, 8);
    section.kind = static_cast<SectionKind>(kind);
    if (section.offset % kSectionAlign != 0 ||
        section.offset < table_end ||
        section.offset + section.size > bytes ||
        section.offset + section.size < section.offset) {
      fail("section " + std::to_string(kind) + " out of bounds");
    }
    g.sections_.push_back(section);
  }

  auto find = [&](SectionKind kind) -> const GsbgSection* {
    for (const auto& section : g.sections_) {
      if (section.kind == kind) return &section;
    }
    return nullptr;
  };
  auto section_span = [&](const GsbgSection& section) {
    return base + section.offset;
  };

  // --- CSR (required) --------------------------------------------------------
  const GsbgSection* offsets = find(SectionKind::kCsrOffsets);
  const GsbgSection* targets = find(SectionKind::kCsrTargets);
  if (offsets == nullptr || targets == nullptr) fail("missing CSR sections");
  if (offsets->size != (n + 1) * sizeof(std::uint64_t)) {
    fail("csr offsets section has wrong size");
  }
  if (targets->size != nnz * sizeof(std::uint32_t)) {
    fail("csr targets section has wrong size");
  }
  g.offsets_ = {reinterpret_cast<const std::uint64_t*>(section_span(*offsets)),
                static_cast<std::size_t>(n + 1)};
  g.targets_ = {reinterpret_cast<const std::uint32_t*>(section_span(*targets)),
                static_cast<std::size_t>(nnz)};
  if (g.offsets_.front() != 0 || g.offsets_.back() != nnz) {
    fail("csr offsets do not cover the target array");
  }
  g.degrees_.resize(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (g.offsets_[v + 1] < g.offsets_[v]) fail("csr offsets not monotone");
    g.degrees_[v] =
        static_cast<std::size_t>(g.offsets_[v + 1] - g.offsets_[v]);
  }
  g.check_csr_rows();

  // --- optional sections (kinds it does not read are skipped) --------------
  if (const GsbgSection* bitmap = find(SectionKind::kBitmap)) {
    g.words_per_row_ = bits::DynamicBitset::word_count(n);
    if (bitmap->size != n * g.words_per_row_ * sizeof(std::uint64_t)) {
      fail("bitmap section has wrong size");
    }
    g.bitmap_ = reinterpret_cast<const std::uint64_t*>(section_span(*bitmap));
    g.check_bitmap_padding();
  }
  if (const GsbgSection* perm = find(SectionKind::kPermutation)) {
    if (perm->size != n * sizeof(std::uint32_t)) {
      fail("permutation section has wrong size");
    }
    g.permutation_ = {
        reinterpret_cast<const std::uint32_t*>(section_span(*perm)),
        static_cast<std::size_t>(n)};
    // Content check: entries feed indexing (original_id, inverse tables),
    // so a corrupt section must not pass as a valid bijection on [0, n).
    std::vector<bool> seen(n, false);
    for (const std::uint32_t original : g.permutation_) {
      if (original >= n || seen[original]) {
        fail("permutation section is not a bijection");
      }
      seen[original] = true;
    }
  }
  if (g.degree_sorted() && g.permutation_.empty()) {
    fail("degree-sorted flag without permutation section");
  }

  if (options.verify_checksum) {
    g.verify_checksum();
    g.verify_bitmap_rows();
  }
  return g;
}

void MappedGraph::check_csr_rows() const {
  const std::uint64_t n = header_.n;
  // cursor[u]: the next of row u's targets below u that no lower row has
  // matched yet.  Rows are visited in ascending order, so the arcs {v, u}
  // with v < u arrive in the order row u lists its lower targets.
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t end = offsets_[v + 1];
    if (cursor[v] != end && targets_[cursor[v]] < v) {
      fail("csr row " + std::to_string(v) + " lists an arc with no reverse");
    }
    for (std::uint64_t i = offsets_[v]; i < end; ++i) {
      const std::uint32_t u = targets_[i];
      if (u >= n) fail("csr row " + std::to_string(v) + " target out of range");
      if (i > offsets_[v] && targets_[i - 1] >= u) {
        fail("csr row " + std::to_string(v) + " not strictly ascending");
      }
      if (u == v) fail("csr row " + std::to_string(v) + " holds a self-loop");
      if (u > v) {
        if (cursor[u] == offsets_[u + 1] || targets_[cursor[u]] != v) {
          fail("csr row " + std::to_string(v) + " lists an arc with no reverse");
        }
        ++cursor[u];
      }
    }
  }
}

void MappedGraph::check_bitmap_padding() const {
  const std::uint64_t n = header_.n;
  if (n % 64 == 0) return;
  const std::uint64_t pad_mask = ~((std::uint64_t{1} << (n % 64)) - 1);
  // Windows are aligned in the address space, as the kernel's fault-around
  // blocks are, so no read maps a page of a window already handed back.
  constexpr std::uintptr_t kWindow = std::uintptr_t{1} << 20;
  const auto base = reinterpret_cast<std::uintptr_t>(file_.data());
  const auto first = reinterpret_cast<std::uintptr_t>(bitmap_);
  const auto last = reinterpret_cast<std::uintptr_t>(
      bitmap_ + n * words_per_row_);
  // Only whole pages of the bitmap: a page it shares with another section
  // stays.
  const auto drop = [&](std::uintptr_t begin, std::uintptr_t end) {
    file_.drop_pages(std::max(begin, first) - base, std::min(end, last) - base);
  };
  std::uintptr_t window = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t* row_end = bitmap_ + (v + 1) * words_per_row_ - 1;
    const auto at = reinterpret_cast<std::uintptr_t>(row_end) & ~(kWindow - 1);
    if (at != window) {
      if (window != 0) drop(window, window + kWindow);
      window = at;
    }
    if ((*row_end & pad_mask) != 0) {
      fail("bitmap row " + std::to_string(v) +
           " has padding bits set (corrupt)");
    }
  }
  drop(window, last);
}

double MappedGraph::density() const noexcept {
  return graph::edge_density(order(), num_edges());
}

graph::GraphView MappedGraph::view() const {
  if (!has_bitmap()) {
    fail("file has no bitmap section; use load() or rewrite with bitmap");
  }
  return graph::GraphView(bitmap_, words_per_row_, order(), num_edges(),
                          degrees_.data(), offsets_.data(), targets_.data());
}

graph::Graph MappedGraph::load() const {
  graph::Graph g(order());
  const std::uint64_t n = header_.n;
  for (std::uint64_t v = 0; v < n; ++v) {
    for (const std::uint32_t u : csr_row(static_cast<graph::VertexId>(v))) {
      if (u > v) g.add_edge(static_cast<graph::VertexId>(v), u);
    }
  }
  return g;
}

void MappedGraph::verify_checksum() const {
  Fnv1a sum;
  sum.update(file_.data() + kHeaderBytes, file_.size() - kHeaderBytes);
  if (sum.digest() != header_.checksum) {
    fail("checksum mismatch (file corrupt or truncated)");
  }
}

void MappedGraph::verify_bitmap_rows() const {
  if (!has_bitmap()) return;
  const std::uint64_t n = header_.n;
  for (std::uint64_t v = 0; v < n; ++v) {
    const bits::BitsetView row(bitmap_ + v * words_per_row_, n);
    const auto targets = csr_row(static_cast<graph::VertexId>(v));
    bool agree = row.count() == targets.size();
    for (std::size_t i = 0; agree && i < targets.size(); ++i) {
      agree = row.test(targets[i]);
    }
    if (!agree) {
      fail("bitmap row " + std::to_string(v) +
           " disagrees with its CSR list (corrupt)");
    }
  }
}

}  // namespace gsb::storage
