#include "storage/gsbg_writer.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "bitset/dynamic_bitset.h"
#include "storage/gsbg_format.h"
#include "util/io.h"

namespace gsb::storage {
namespace {

using bits::DynamicBitset;
using graph::VertexId;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("gsbg: " + what);
}

/// Uniform row access over the writer's two inputs (GraphView, raw CSR),
/// with an optional degree-sort relabeling applied on the fly.
/// `stored` ids are file ids; perm_[stored] is the source id.
class RowSource {
 public:
  virtual ~RowSource() = default;

  [[nodiscard]] std::size_t order() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return m_; }
  [[nodiscard]] bool relabeled() const noexcept { return !perm_.empty(); }
  [[nodiscard]] const std::vector<std::uint32_t>& permutation()
      const noexcept {
    return perm_;
  }

  [[nodiscard]] std::size_t degree(std::uint32_t stored) const {
    return source_degree(source_id(stored));
  }

  /// Sorted stored-namespace neighbor ids of stored vertex \p stored.
  void row(std::uint32_t stored, std::vector<std::uint32_t>& out) const {
    out.clear();
    source_row(source_id(stored), out);
    if (relabeled()) {
      for (auto& v : out) v = inverse_[v];
      std::sort(out.begin(), out.end());
    }
  }

  /// Installs the degree-descending relabeling (ties by source id).
  void sort_by_degree() {
    perm_.resize(n_);
    std::iota(perm_.begin(), perm_.end(), 0u);
    std::stable_sort(perm_.begin(), perm_.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return source_degree(a) > source_degree(b);
                     });
    inverse_.resize(n_);
    for (std::uint32_t i = 0; i < n_; ++i) inverse_[perm_[i]] = i;
  }

 protected:
  RowSource(std::size_t n, std::size_t m) : n_(n), m_(m) {}

  [[nodiscard]] virtual std::size_t source_degree(std::uint32_t v) const = 0;
  virtual void source_row(std::uint32_t v,
                          std::vector<std::uint32_t>& out) const = 0;

 private:
  [[nodiscard]] std::uint32_t source_id(std::uint32_t stored) const noexcept {
    return relabeled() ? perm_[stored] : stored;
  }

  std::size_t n_;
  std::size_t m_;
  std::vector<std::uint32_t> perm_;     ///< stored id -> source id
  std::vector<std::uint32_t> inverse_;  ///< source id -> stored id
};

class ViewSource final : public RowSource {
 public:
  explicit ViewSource(const graph::GraphView& g)
      : RowSource(g.order(), g.num_edges()), g_(g) {}

 protected:
  std::size_t source_degree(std::uint32_t v) const override {
    return g_.degree(v);
  }
  void source_row(std::uint32_t v,
                  std::vector<std::uint32_t>& out) const override {
    g_.neighbors(v).for_each(
        [&](std::size_t u) { out.push_back(static_cast<std::uint32_t>(u)); });
  }

 private:
  const graph::GraphView& g_;
};

class CsrSource final : public RowSource {
 public:
  CsrSource(std::size_t n, std::span<const std::uint64_t> offsets,
            std::span<const std::uint32_t> targets)
      : RowSource(n, targets.size() / 2), offsets_(offsets),
        targets_(targets) {
    if (offsets.size() != n + 1) fail("csr offsets must have n+1 entries");
    if (offsets.front() != 0 || offsets.back() != targets.size()) {
      fail("csr offsets do not cover the target array");
    }
  }

 protected:
  std::size_t source_degree(std::uint32_t v) const override {
    return static_cast<std::size_t>(offsets_[v + 1] - offsets_[v]);
  }
  void source_row(std::uint32_t v,
                  std::vector<std::uint32_t>& out) const override {
    out.insert(out.end(), targets_.begin() + static_cast<std::ptrdiff_t>(
                                                 offsets_[v]),
               targets_.begin() + static_cast<std::ptrdiff_t>(
                                      offsets_[v + 1]));
  }

 private:
  std::span<const std::uint64_t> offsets_;
  std::span<const std::uint32_t> targets_;
};

/// Checksummed sequential writer for everything after the header.
class PayloadWriter {
 public:
  PayloadWriter(util::io::FileWriter& out) : out_(out) {}

  void raw(const void* data, std::size_t bytes) {
    out_.write(data, bytes);
    sum_.update(data, bytes);
    pos_ += bytes;
  }

  template <typename T>
  void put(T value) {
    raw(&value, sizeof(value));
  }

  /// Zero-fills up to absolute file offset \p target.
  void pad_to(std::uint64_t target) {
    static constexpr char zeros[kSectionAlign] = {};
    while (position() < target) {
      const std::size_t chunk =
          std::min<std::uint64_t>(sizeof(zeros), target - position());
      raw(zeros, chunk);
    }
  }

  /// Current absolute file offset (header included).
  [[nodiscard]] std::uint64_t position() const noexcept {
    return kHeaderBytes + pos_;
  }
  [[nodiscard]] std::uint64_t checksum() const noexcept {
    return sum_.digest();
  }

 private:
  util::io::FileWriter& out_;
  Fnv1a sum_;
  std::uint64_t pos_ = 0;  ///< bytes written past the header
};

void serialize_header(const GsbgHeader& header,
                      char (&buffer)[kHeaderBytes]) {
  std::memset(buffer, 0, sizeof(buffer));
  std::memcpy(buffer, kMagic, sizeof(kMagic));
  std::memcpy(buffer + 8, &header.version, 4);
  std::memcpy(buffer + 12, &header.flags, 4);
  std::memcpy(buffer + 16, &header.n, 8);
  std::memcpy(buffer + 24, &header.m, 8);
  std::memcpy(buffer + 32, &header.checksum, 8);
  std::memcpy(buffer + 40, &header.section_count, 8);
}

void write_gsbg(RowSource& source, const std::string& path,
                const GsbgWriteOptions& options) {
  const std::size_t n = source.order();
  if (n >= (std::uint64_t{1} << 32)) fail("graph too large for 32-bit ids");
  if (options.degree_sort) source.sort_by_degree();

  const std::size_t wpr = DynamicBitset::word_count(n);
  const std::uint64_t nnz = 2 * source.num_edges();

  // --- section plan ---------------------------------------------------------
  std::vector<GsbgSection> sections;
  auto plan = [&](SectionKind kind, std::uint64_t size) {
    sections.push_back(GsbgSection{kind, 0, size});
  };
  plan(SectionKind::kCsrOffsets, (n + 1) * sizeof(std::uint64_t));
  plan(SectionKind::kCsrTargets, nnz * sizeof(std::uint32_t));
  if (options.bitmap) {
    plan(SectionKind::kBitmap, n * wpr * sizeof(std::uint64_t));
  }
  if (source.relabeled()) {
    plan(SectionKind::kPermutation, n * sizeof(std::uint32_t));
  }
  std::uint64_t cursor =
      align_up(kHeaderBytes + sections.size() * kSectionEntryBytes);
  for (auto& section : sections) {
    section.offset = cursor;
    cursor = align_up(section.offset + section.size);
  }

  // Crash safety: all bytes land in `<path>.tmp.<pid>`; commit() below
  // fsyncs and atomically renames, so `path` is never a torn container.
  util::io::FileWriter out(path);

  GsbgHeader header;
  header.flags = source.relabeled() ? kFlagDegreeSorted : 0u;
  header.n = n;
  header.m = source.num_edges();
  header.section_count = sections.size();
  char header_bytes[kHeaderBytes];
  serialize_header(header, header_bytes);  // checksum patched below
  out.write(header_bytes, sizeof(header_bytes));

  PayloadWriter payload(out);
  for (const auto& section : sections) {
    payload.put(static_cast<std::uint32_t>(section.kind));
    payload.put(std::uint32_t{0});
    payload.put(section.offset);
    payload.put(section.size);
    payload.put(std::uint64_t{0});
  }

  std::vector<std::uint32_t> row;
  auto begin_section = [&](std::size_t index) {
    payload.pad_to(sections[index].offset);
  };
  std::size_t section_index = 0;

  // kCsrOffsets
  begin_section(section_index++);
  std::uint64_t offset = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    payload.put(offset);
    offset += source.degree(v);
  }
  payload.put(offset);
  if (offset != nnz) fail("degree sum disagrees with edge count");

  // kCsrTargets
  begin_section(section_index++);
  for (std::uint32_t v = 0; v < n; ++v) {
    source.row(v, row);
    payload.raw(row.data(), row.size() * sizeof(std::uint32_t));
  }

  // kBitmap — one row bitset of scratch, regardless of graph size.
  if (options.bitmap) {
    begin_section(section_index++);
    DynamicBitset row_bits(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      row_bits.clear_all();
      source.row(v, row);
      for (std::uint32_t u : row) row_bits.set(u);
      payload.raw(row_bits.words().data(), wpr * sizeof(std::uint64_t));
    }
  }

  if (source.relabeled()) {
    begin_section(section_index++);
    payload.raw(source.permutation().data(), n * sizeof(std::uint32_t));
  }
  payload.pad_to(cursor);

  header.checksum = payload.checksum();
  serialize_header(header, header_bytes);
  out.write_at(0, header_bytes, sizeof(header_bytes));
  out.commit();
}

}  // namespace

void write_gsbg_file(const graph::GraphView& g, const std::string& path,
                     const GsbgWriteOptions& options) {
  ViewSource source(g);
  write_gsbg(source, path, options);
}

void write_gsbg_from_csr(std::size_t n,
                         std::span<const std::uint64_t> offsets,
                         std::span<const std::uint32_t> targets,
                         const std::string& path,
                         const GsbgWriteOptions& options) {
  CsrSource source(n, offsets, targets);
  write_gsbg(source, path, options);
}

}  // namespace gsb::storage
